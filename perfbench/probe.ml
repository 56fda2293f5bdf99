(* Direct probes of single layers, run under [Mpisim.Sim.run] with
   nothing else around them: run-time kernels at the paper_p4 shapes,
   the simulator core, the collectives at P = 1024 and the reliable
   layer.  Each probe sits in its own span; allocation is measured
   exactly, with the GC counters flushed around the probe. *)

let meiko = Mpisim.Machine.meiko_cs2

(* Host seconds and allocated words of [f], under span [name]. *)
let measure tr name f =
  Span.sync ();
  let w0 = Span.alloc_words () and t0 = Span.now () in
  let r = Span.with_span tr name f in
  let dt = Span.now () -. t0 in
  Span.sync ();
  (r, dt, Span.alloc_words () -. w0)

let vec n = Runtime.Dmat.init ~rows:n ~cols:1 (fun g -> float_of_int (g mod 13) -. 6.)
let row n = Runtime.Dmat.init ~rows:1 ~cols:n (fun g -> float_of_int (g mod 11) *. 0.5)
let mat n = Runtime.Dmat.init ~rows:n ~cols:n (fun g -> float_of_int (g mod 7) -. 3.)

(* Shapes of the apps at 50% of paper size: cg n = 1024, tc n = 256,
   ocean n = 10000 with 5 wave components, heat3d 24 x 16 x 16.  Each
   kernel repeats [reps] times inside one simulated run at P = 4; the
   figure is per call, with operand set-up amortized over the reps. *)
let kernels : (string * int * (unit -> unit -> unit)) list =
  let open Runtime in
  [
    ("matvec", 10, fun () -> let a = mat 1024 and x = vec 1024 in fun () -> ignore (Ops.matmul a x));
    ("matmul", 2, fun () -> let a = mat 256 and b = mat 256 in fun () -> ignore (Ops.matmul a b));
    ("matmul_t", 200, fun () -> let a = vec 1024 and b = vec 1024 in fun () -> ignore (Ops.matmul_t a b));
    ("dot", 200, fun () -> let a = vec 1024 and b = vec 1024 in fun () -> ignore (Ops.dot a b));
    ("outer", 20, fun () -> let u = vec 5 and v = row 10000 in fun () -> ignore (Ops.outer u v));
    ("circshift", 100, fun () -> let v = row 10000 in fun () -> ignore (Ops.circshift v 1));
    ("trapz", 100, fun () -> let x = row 10000 and y = row 10000 in fun () -> ignore (Ops.trapz ~x y));
    ("reduce_cols", 50, fun () -> let a = mat 256 in fun () -> ignore (Ops.reduce_cols Ops.Rsum a));
    ( "nd_section",
      50,
      fun () ->
        let t = Ndarr.init [| 24; 16; 16 |] (fun g -> float_of_int (g mod 5)) in
        let sel = [| Array.init 22 Fun.id; Array.init 14 succ; Array.init 14 succ |] in
        fun () -> ignore (Ops.nd_section t sel) );
  ]

let runtime_metrics tr =
  List.concat_map
    (fun (k, reps, body) ->
      let _, dt, words =
        measure tr ("runtime." ^ k) (fun () ->
            Mpisim.Sim.run ~machine:meiko ~nprocs:4 (fun _ ->
                let op = body () in
                for _ = 1 to reps do op () done))
      in
      let per = float_of_int reps in
      [
        Record.metric ("runtime." ^ k ^ ".s") "s" (dt /. per);
        Record.metric ("runtime." ^ k ^ ".mwords") "Mwords" (words /. per /. 1e6);
      ])
    kernels

let coll_procs = 1024

let collectives : (string * (unit -> unit)) list =
  let open Mpisim in
  [
    ("bcast", fun () -> ignore (Coll.bcast ~root:0 (Array.make 64 1.)));
    ("allreduce", fun () -> ignore (Coll.allreduce ~op:Coll.Sum (Array.make 64 1.)));
    ( "allgatherv",
      fun () -> ignore (Coll.allgatherv ~counts:(Array.make coll_procs 4) (Array.make 4 1.)) );
    ("barrier", Coll.barrier);
  ]

let sim_metrics tr =
  let ft = Mpisim.Machine.fattree () in
  let spawn_runs = 3 in
  let _, spawn_dt, _ =
    measure tr "sim.spawn" (fun () ->
        for _ = 1 to spawn_runs do
          ignore (Mpisim.Sim.run ~machine:ft ~nprocs:coll_procs Fun.id)
        done)
  in
  let spawn_s = spawn_dt /. float_of_int spawn_runs in
  let pingpongs = 1000 in
  let (_, p2p), p2p_dt, _ =
    measure tr "sim.p2p" (fun () ->
        Mpisim.Sim.run ~machine:meiko ~nprocs:2 (fun r ->
            let data = Mpisim.Sim.Floats (Array.make 16 1.) in
            for i = 1 to pingpongs do
              if r = 0 then begin
                Mpisim.Sim.send ~dst:1 ~tag:i data;
                ignore (Mpisim.Sim.recv ~src:1 ~tag:i)
              end
              else begin
                ignore (Mpisim.Sim.recv ~src:0 ~tag:i);
                Mpisim.Sim.send ~dst:0 ~tag:i data
              end
            done))
  in
  (* one unmeasured round builds the fat-tree's memoized links *)
  let reps = 2 in
  let coll_run op n =
    Mpisim.Sim.run ~machine:ft ~nprocs:coll_procs (fun _ -> for _ = 1 to n do op () done)
  in
  Span.with_span tr "coll.warmup" (fun () -> List.iter (fun (_, op) -> ignore (coll_run op 1)) collectives);
  let colls =
    List.concat_map
      (fun (name, op) ->
        let (_, rep), dt, _ = measure tr ("coll." ^ name) (fun () -> coll_run op reps) in
        let per = float_of_int reps in
        [
          Record.metric ("coll." ^ name ^ ".s") "s" (Float.max 0. (dt -. spawn_s) /. per);
          Record.metric ("coll." ^ name ^ ".messages") "count"
            (float_of_int rep.Mpisim.Sim.messages /. per);
        ])
      collectives
  in
  [
    Record.metric "sim.spawn_us_per_rank" "us" (spawn_s /. float_of_int coll_procs *. 1e6);
    Record.metric "sim.p2p_us_per_msg" "us" (p2p_dt /. float_of_int p2p.Mpisim.Sim.messages *. 1e6);
  ]
  @ colls

(* A ring of reliable sends over a lossy Meiko at P = 16. *)
let reliable_metrics tr =
  let faults =
    match Mpisim.Machine.faults_of_spec "drop=0.05,dup=0.02,delay=0.02,seed=7" with
    | Ok f -> f
    | Error e -> failwith e
  in
  let m = Mpisim.Machine.with_faults ~reliable:true ~faults meiko in
  let procs = 16 and per_rank = 100 in
  let _, dt, _ =
    measure tr "reliable.ring" (fun () ->
        Mpisim.Sim.run ~machine:m ~nprocs:procs (fun r ->
            let data = Mpisim.Sim.Floats (Array.make 16 1.) in
            for i = 1 to per_rank do
              Mpisim.Reliable.send ~dst:((r + 1) mod procs) ~tag:i data
            done;
            for i = 1 to per_rank do
              ignore (Mpisim.Reliable.recv ~src:((r + procs - 1) mod procs) ~tag:i)
            done))
  in
  [ Record.metric "reliable.us_per_msg" "us" (dt /. float_of_int (procs * per_rank) *. 1e6) ]

let all tr = runtime_metrics tr @ sim_metrics tr @ reliable_metrics tr
