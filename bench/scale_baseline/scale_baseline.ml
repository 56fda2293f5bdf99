(* The scale benchmark's entries and its baseline file
   (bench/BENCH_scale_baseline.json), shared by [bench scale], which
   writes the file and gates against it, and the tier-1 test that
   re-runs the file's fat-tree entries.  The writer and the reader live
   here together: the reader expects the one-entry-per-line layout
   [write] produces. *)

type entry = {
  sc_app : string;
  sc_machine : string;
  sc_procs : int;
  sc_cpus : int; (* physical CPUs under oversubscription; 0 = one per rank *)
  sc_dist : string;
  sc_time : float; (* modeled seconds *)
  sc_messages : int;
  sc_bytes : int;
  sc_picks : int; (* scheduler pick count (deterministic) *)
  sc_wall : float; (* host seconds; informational only *)
}

(* Run compiled program [c] in one configuration and record it.  With
   [cpus > 0] the [procs] ranks are block-mapped onto that many CPUs of
   [machine]; [dist] names the data layout as [--dist] spells it. *)
let measure ~app ~machine:(mname, (m : Mpisim.Machine.t)) ~procs ~cpus ~dist c
    =
  let m =
    if cpus > 0 then
      Mpisim.Machine.with_placement ~cpus ~map:Mpisim.Machine.Map_block m
    else m
  in
  let layout =
    match Otter.Config.layout_of_string dist with
    | Some l -> l
    | None -> invalid_arg ("scale baseline: unknown distribution " ^ dist)
  in
  let cfg = Otter.config ~machine:m ~nprocs:procs ~layout () in
  let t0 = Unix.gettimeofday () in
  let r = (Otter.outcome_exn (Otter.run cfg c)).Exec.Vm.report in
  let wall = Unix.gettimeofday () -. t0 in
  {
    sc_app = app;
    sc_machine = mname;
    sc_procs = procs;
    sc_cpus = cpus;
    sc_dist = dist;
    sc_time = r.Mpisim.Sim.makespan;
    sc_messages = r.Mpisim.Sim.messages;
    sc_bytes = r.Mpisim.Sim.bytes;
    sc_picks = r.Mpisim.Sim.sched_picks;
    sc_wall = wall;
  }

let entry_line e =
  Printf.sprintf
    "{\"app\": %S, \"machine\": %S, \"procs\": %d, \"cpus\": %d, \"dist\": \
     %S, \"time\": %.9f, \"messages\": %d, \"bytes\": %d, \"picks\": %d, \
     \"wall\": %.4f}"
    e.sc_app e.sc_machine e.sc_procs e.sc_cpus e.sc_dist e.sc_time
    e.sc_messages e.sc_bytes e.sc_picks e.sc_wall

let write ~file ~scale entries =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"benchmark\": \"scale\",\n  \"scale\": %d,\n" scale;
  Printf.fprintf oc "  \"entries\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Printf.fprintf oc "    %s%s\n" (entry_line e)
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* The file's problem scale (-1 when it names none) and its entries. *)
let read file =
  let ic = open_in file in
  let scale = ref (-1) in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       (try Scanf.sscanf line " \"scale\": %d" (fun s -> scale := s)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ());
       try
         Scanf.sscanf line
           " {\"app\": %S, \"machine\": %S, \"procs\": %d, \"cpus\": %d, \
            \"dist\": %S, \"time\": %f, \"messages\": %d, \"bytes\": %d, \
            \"picks\": %d, \"wall\": %f}"
           (fun a m p cp d t ms b pk w ->
             entries :=
               {
                 sc_app = a;
                 sc_machine = m;
                 sc_procs = p;
                 sc_cpus = cp;
                 sc_dist = d;
                 sc_time = t;
                 sc_messages = ms;
                 sc_bytes = b;
                 sc_picks = pk;
                 sc_wall = w;
               }
               :: !entries)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (!scale, List.rev !entries)
