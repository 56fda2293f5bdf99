(* The benchmark's workloads.  Each one loads a different layer of
   Otter:

   - paper_p4: the six verified apps at P = 4 on the Meiko CS-2, at 50%
     of paper size -- the paper's own setting; host time sits in the
     run-time kernels and the engine's element loops;
   - fattree_256: cg, ocean, nbody and tc on the fat-tree at P = 256 --
     host time sits in the simulator core, the mailboxes, payload
     copying and the collectives;
   - faults_p16: the same four apps at P = 16 on the Meiko under two
     seeded fault models with the reliable layer and checkpointing --
     the only workload where retransmission and rollback do work;
   - fuzz_scripts: a seeded draw of random scripts, each compiled,
     emitted as C, interpreted and run at P = 1..4 on two machines --
     host time sits in the front end, the passes and run set-up.

   The workload seed drives the apps' replicated RNG (their input data)
   and the fuzz generator (the scripts themselves). *)

type params = { scale : int; procs : int; fuzz_cases : int }

type kind = Paper | Fattree | Faults | Fuzz_scripts

type t = { name : string; kind : kind; defaults : params; why : string }

let all =
  [
    {
      name = "paper_p4";
      kind = Paper;
      defaults = { scale = 50; procs = 4; fuzz_cases = 0 };
      why = "the paper's setting: six apps at P=4 on the Meiko, kernel-bound";
    };
    {
      name = "fattree_256";
      kind = Fattree;
      defaults = { scale = 25; procs = 256; fuzz_cases = 0 };
      why = "four apps at P=256 on the fat-tree: simulator core, mailboxes, copies";
    };
    {
      name = "faults_p16";
      kind = Faults;
      defaults = { scale = 25; procs = 16; fuzz_cases = 0 };
      why = "four apps at P=16 under loss and a kill: reliable layer and recovery";
    };
    {
      name = "fuzz_scripts";
      kind = Fuzz_scripts;
      defaults = { scale = 0; procs = 4; fuzz_cases = 300 };
      why = "random scripts: front end, passes, codegen, interpreter, run set-up";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- calls into the layers, each under its span -------------------------- *)

let frontend (c : Otter.compiled) : Otter.frontend =
  { Otter.fe_source = c.Otter.source; fe_ast = c.Otter.ast; fe_info = c.Otter.info }

let o2 = Spmd.Pass.level_passes Spmd.Pass.O2

(* [Otter.compile ~validate:true] at O2.  Traced, the front end is
   called step by step so parse, front end and lowering get spans of
   their own; the pass pipeline is the program's own
   [Spmd.Pass.run_pipeline], under one span.  The traced run checks
   that both routes produce the same IR. *)
let compile tr source : Otter.compiled =
  if not tr.Span.on then Otter.compile ~validate:true source
  else begin
    let sp name f = Span.with_span tr name f in
    let ast = sp "mlang.parse" (fun () -> Mlang.Parser.parse_program source) in
    let ast, info =
      sp "analysis.frontend" (fun () ->
          let ast = Analysis.Resolve.run ast in
          let info = Analysis.Infer.program ast in
          Analysis.Ast_check.validate ast;
          (ast, info))
    in
    let prog = sp "spmd.lower" (fun () -> Spmd.Lower.lower_program info ast) in
    let prog, passes = sp "spmd.pipeline" (fun () -> Spmd.Pass.run_pipeline ~validate:true o2 prog) in
    { Otter.source; ast; info; prog; passes }
  end

let interpret tr cfg c = Span.with_span tr "interp" (fun () -> Otter.interpret cfg (frontend c))

(* --- runs and their checks ------------------------------------------------ *)

(* What a run's result must agree with: the interpreter's captures (within
   the verifier's tolerance), or the exact output of an earlier, checked
   run of the same configuration. *)
type expect = Captures of Interp.Eval.outcome | Output of string

type run = {
  label : string;
  expect : expect;
  result : (Exec.State.recovery, string) result;
  host_s : float;
}

let run tr ~label ~expect cfg c =
  let t0 = Span.now () in
  let result =
    match Span.with_span tr "exec.run" (fun () -> Otter.run cfg c) with
    | rc -> Ok rc
    | exception e -> Error (Printexc.to_string e)
  in
  { label; expect; result; host_s = Span.now () -. t0 }

let tol = 1e-9

(* The verifier's rule, as in [Otter.compare_values] (which otter.mli
   does not export): values agree within a relative [tol], NaN agrees
   with NaN, and a scalar agrees with a 1x1 matrix or one-element
   array. *)
let close x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y) <= tol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

let values_agree (a : Interp.Eval.captured) (b : Exec.State.captured) =
  let all2 d1 d2 = Array.length d1 = Array.length d2 && Array.for_all2 close d1 d2 in
  match (a, b) with
  | Interp.Eval.Cscalar x, Exec.State.Cscalar y
  | Interp.Eval.Cscalar x, Exec.State.Cmat (1, 1, [| y |])
  | Interp.Eval.Cmat (1, 1, [| x |]), Exec.State.Cscalar y
  | Interp.Eval.Cscalar x, Exec.State.Cnd (_, [| y |])
  | Interp.Eval.Cnd (_, [| x |]), Exec.State.Cscalar y ->
      close x y
  | Interp.Eval.Cmat (r1, c1, d1), Exec.State.Cmat (r2, c2, d2) -> r1 = r2 && c1 = c2 && all2 d1 d2
  | Interp.Eval.Cnd (s1, d1), Exec.State.Cnd (s2, d2) -> s1 = s2 && all2 d1 d2
  | _ -> false

(* [None] when the run completed and agrees with its expectation. *)
let disagreement (r : run) : string option =
  match r.result with
  | Error e -> Some ("raised " ^ e)
  | Ok { Exec.State.r_result = Exec.State.Partial { detail; _ }; _ } -> Some ("aborted: " ^ detail)
  | Ok { Exec.State.r_result = Exec.State.Complete o; _ } -> (
      match r.expect with
      | Output s -> if o.Exec.State.output = s then None else Some "output differs from the checked run"
      | Captures reference ->
          let ref_caps = reference.Interp.Eval.captures and caps = o.Exec.State.captures in
          let bad =
            List.find_opt
              (fun (name, v) ->
                match List.assoc_opt name caps with Some w -> not (values_agree v w) | None -> true)
              ref_caps
          in
          let extra = List.find_opt (fun (name, _) -> not (List.mem_assoc name ref_caps)) caps in
          match (bad, extra) with
          | Some (name, _), _ -> Some ("disagrees with the interpreter on " ^ name)
          | None, Some (name, _) -> Some ("captured " ^ name ^ ", which the interpreter did not")
          | None, None -> None)

let output_of (r : run) =
  match r.result with
  | Ok { Exec.State.r_result = Exec.State.Complete o; _ } -> Some o.Exec.State.output
  | _ -> None

(* --- workload state ------------------------------------------------------- *)

(* One configuration of an app workload: the compiled app, the timed
   (capture-free, as [otterc run]) and checking (captured) run configs,
   and the interpreter's reference. *)
type config = {
  key : string; (* the app *)
  label : string;
  compiled : Otter.compiled;
  cfg : Otter.Config.t;
  check_cfg : Otter.Config.t;
  reference : Interp.Eval.outcome;
  twin : Otter.Config.t option; (* the same run without its kill *)
  mutable output : string; (* the checked run's output *)
}

type state =
  | Apps of { sources : string list; configs : config list }
  | Scripts of { sources : string list }

let sources = function Apps { sources; _ } | Scripts { sources } -> sources

(* What one pass did. *)
type pass = {
  runs : run list;
  compiled : Otter.compiled list; (* what the pass compiled (fuzz) *)
  discarded : int; (* scripts the front end or interpreter rejected *)
  c_bytes : int; (* emitted C *)
}

let faults_of spec =
  match Mpisim.Machine.faults_of_spec spec with Ok f -> f | Error e -> failwith e

(* Two seeded fault models, scaled to the clean makespan [span]: loss
   of every kind; and loss plus a planted kill that checkpoint recovery
   must survive. *)
let fault_specs span =
  let detect = Float.max 0.01 (span *. 0.05) in
  [
    ( "loss",
      Printf.sprintf "drop=0.05,dup=0.02,delay=0.05,stall=0.02,detect=%g,seed=201" span,
      None );
    ( "kill",
      Printf.sprintf "drop=0.03,dup=0.01,delay=0.03,kill_rank=3,kill_time=%g,detect=%g,seed=202"
        (span *. 0.4) detect,
      Some (Printf.sprintf "drop=0.03,dup=0.01,delay=0.03,detect=%g,seed=202" detect) );
  ]

let setup tr (w : t) (p : params) ~seed : state =
  let app_configs (app : Apps.Scripts.app) =
    let source = app.source p.scale in
    let compiled = compile tr source in
    let reference = interpret tr (Otter.config ~seed ~capture:app.capture ()) compiled in
    let mk ?twin label machine ~ckpt =
      let cfg capture =
        Otter.config ~machine ~nprocs:p.procs ~seed ~capture ~ckpt_interval:ckpt
          ~max_recoveries:(if ckpt > 0. then 3 else 0) ()
      in
      {
        key = app.key;
        label = Printf.sprintf "%s %s P=%d" app.key label p.procs;
        compiled;
        cfg = cfg [];
        check_cfg = cfg app.capture;
        reference;
        twin = Option.map (fun m -> { (cfg []) with Otter.Config.machine = m }) twin;
        output = "";
      }
    in
    let configs =
      match w.kind with
      | Paper -> [ mk "meiko" Mpisim.Machine.meiko_cs2 ~ckpt:0. ]
      | Fattree -> [ mk "fattree" (Mpisim.Machine.fattree ()) ~ckpt:0. ]
      | Faults ->
          let meiko = Mpisim.Machine.meiko_cs2 in
          let clean =
            Otter.outcome_exn
              (Span.with_span tr "exec.run" (fun () ->
                   Otter.run (Otter.config ~machine:meiko ~nprocs:p.procs ~seed ()) compiled))
          in
          let span = clean.Exec.State.report.Mpisim.Sim.makespan in
          let faulty spec = Mpisim.Machine.with_faults ~reliable:true ~faults:(faults_of spec) meiko in
          List.map
            (fun (name, spec, twin) ->
              mk ("meiko " ^ name) (faulty spec) ~ckpt:(span *. 0.08) ?twin:(Option.map faulty twin))
            (fault_specs span)
      | Fuzz_scripts -> []
    in
    (source, configs)
  in
  match w.kind with
  | Paper | Fattree | Faults ->
      (* the paper's four apps, plus the two rank-3 apps at P = 4 *)
      let apps = if w.kind = Paper then Apps.Scripts.all else Apps.Scripts.apps in
      let per_app = List.map app_configs apps in
      Apps { sources = List.map fst per_app; configs = List.concat_map snd per_app }
  | Fuzz_scripts ->
      (* A stratified draw: the seed draws a pool [pool_factor] times the
         case count, and every [pool_factor]-th script by length is kept.
         A script's length tracks its work (the epilogue prints every
         element), so the mix of small and large scripts, and with it the
         workload's total work, hardly varies with the seed. *)
      let pool_factor = 8 in
      let rand = Random.State.make [| seed |] in
      let sources =
        Span.with_span tr "fuzz.gen" (fun () ->
            List.init (p.fuzz_cases * pool_factor) (fun _ -> QCheck2.Gen.generate1 ~rand Fuzz__Gen.script)
            |> List.stable_sort (fun a b -> compare (String.length a) (String.length b))
            |> List.filteri (fun i _ -> i mod pool_factor = pool_factor / 2))
      in
      Scripts { sources }

(* How many of the fuzz pass's scripts may be discarded: the front end
   or the interpreter rejecting them.  Over seeds 1..100 at 300 scripts
   the most was 3, and 83 seeds had none. *)
let max_discards p = p.fuzz_cases / 50

(* Compile every script of the workload once: the [otterc compile]
   user's latency.  Returns what raised other than a rejection of the
   source, which the fuzz oracle would count as a compiler bug. *)
let compile_all state =
  List.fold_left
    (fun errors s ->
      match Otter.compile ~validate:true s with
      | _ -> errors
      | exception (Mlang.Source.Error _ | Spmd.Lower.Unsupported _) -> errors
      | exception e -> ("compile: " ^ Printexc.to_string e) :: errors)
    [] (sources state)

(* The checking pass of an app workload, before the timed phase: every
   configuration runs with captures and is compared with the
   interpreter.  It also fills lazily built machine tables, so timed
   passes start warm. *)
let check_apps tr state : run list =
  match state with
  | Scripts _ -> []
  | Apps { configs; _ } ->
      List.map
        (fun c ->
          let r = run tr ~label:c.label ~expect:(Captures c.reference) c.check_cfg c.compiled in
          c.output <- Option.value (output_of r) ~default:"";
          r)
        configs

let pass tr state ~seed : pass =
  match state with
  | Apps { configs; _ } ->
      let runs =
        List.map (fun c -> run tr ~label:c.label ~expect:(Output c.output) c.cfg c.compiled) configs
      in
      { runs; compiled = []; discarded = 0; c_bytes = 0 }
  | Scripts { sources } ->
      let runs = ref [] and compiled = ref [] and discarded = ref 0 and c_bytes = ref 0 in
      List.iteri
        (fun i script ->
          let label = Printf.sprintf "script %d" i in
          match compile tr script with
          | exception (Mlang.Source.Error _ | Spmd.Lower.Unsupported _) -> incr discarded
          | exception e ->
              let result = Error (Printexc.to_string e) in
              runs := { label; expect = Output ""; result; host_s = 0. } :: !runs
          | c -> (
              compiled := c :: !compiled;
              if not (Fuzz.has_tensor c || Fuzz.uses_mpi script) then
                c_bytes :=
                  !c_bytes
                  + String.length
                      (Span.with_span tr "codegen.emit" (fun () ->
                           Codegen.emit_c ~name:"fuzz_case" c.Otter.prog));
              let capture = Fuzz.capture_list c.Otter.info in
              match interpret tr (Otter.config ~seed ~capture ~machine:Mpisim.Machine.workstation ()) c with
              | exception (Interp.Eval.Runtime_error _ | Exec.Vm.Runtime_error _) -> incr discarded
              | exception e ->
                  let result = Error ("interpreter: " ^ Printexc.to_string e) in
                  runs := { label; expect = Output ""; result; host_s = 0. } :: !runs
              | reference ->
                  List.iter
                    (fun machine ->
                      List.iter
                        (fun nprocs ->
                          let label =
                            Printf.sprintf "%s %s P=%d" label machine.Mpisim.Machine.name nprocs
                          in
                          runs :=
                            run tr ~label ~expect:(Captures reference)
                              (Otter.config ~seed ~capture ~machine ~nprocs ())
                              c
                            :: !runs)
                        Fuzz.procs)
                    Fuzz.machines))
        sources;
      { runs = List.rev !runs; compiled = List.rev !compiled; discarded = !discarded; c_bytes = !c_bytes }

(* --- counters ------------------------------------------------------------- *)

(* Simulator counters summed over a list of runs (every attempt of a
   recovering run counts). *)
type counters = {
  picks : int;
  messages : int;
  bytes : int;
  makespans : float list; (* final attempt of each run, in run order *)
  lib_calls : int;
  compute : float; (* modeled compute seconds, summed over ranks *)
  rank_time : float; (* makespan x ranks, summed over runs *)
  retries : int;
  acks : int;
  drops : int;
  rollbacks : int;
  penalty : float; (* simulated backoff before retries *)
  run_s : float; (* host seconds inside Otter.run *)
}

let counters (runs : run list) : counters =
  let zero =
    { picks = 0; messages = 0; bytes = 0; makespans = []; lib_calls = 0; compute = 0.; rank_time = 0.;
      retries = 0; acks = 0; drops = 0; rollbacks = 0; penalty = 0.; run_s = 0. }
  in
  let c =
    List.fold_left
      (fun acc (r : run) ->
        let acc = { acc with run_s = acc.run_s +. r.host_s } in
        match r.result with
        | Error _ -> acc
        | Ok rc ->
            let acc =
              List.fold_left
                (fun acc (rep : Mpisim.Sim.report) ->
                  {
                    acc with
                    picks = acc.picks + rep.sched_picks;
                    messages = acc.messages + rep.messages;
                    bytes = acc.bytes + rep.bytes;
                    compute = acc.compute +. rep.compute_time;
                    retries = acc.retries + rep.retries;
                    acks = acc.acks + rep.acks;
                    drops = acc.drops + rep.drops;
                  })
                acc rc.Exec.State.r_reports
            in
            let final =
              match rc.Exec.State.r_result with
              | Exec.State.Complete o -> o.Exec.State.report
              | Exec.State.Partial { report; _ } -> report
            in
            let lib_calls =
              match rc.Exec.State.r_result with Exec.State.Complete o -> o.Exec.State.lib_calls | _ -> 0
            in
            {
              acc with
              makespans = final.makespan :: acc.makespans;
              rank_time =
                acc.rank_time
                +. (final.makespan *. float_of_int (Array.length final.per_rank_clock));
              lib_calls = acc.lib_calls + lib_calls;
              rollbacks = acc.rollbacks + rc.Exec.State.r_attempts - 1;
              penalty = acc.penalty +. rc.Exec.State.r_penalty;
            })
      zero runs
  in
  { c with makespans = List.rev c.makespans }

(* Geometric mean of the positive makespans. *)
let geomean xs =
  let pos = List.filter (fun x -> x > 0.) xs in
  if pos = [] then 0.
  else exp (List.fold_left (fun a x -> a +. log x) 0. pos /. float_of_int (List.length pos))

let ir_insts (c : Otter.compiled) =
  let n = ref 0 in
  let count b = Spmd.Ir.iter_insts (fun _ -> incr n) b in
  count c.Otter.prog.Spmd.Ir.p_body;
  List.iter (fun (f : Spmd.Ir.func) -> count f.Spmd.Ir.f_body) c.Otter.prog.Spmd.Ir.p_funcs;
  !n

(* Programs the workload compiled: in set-up for the apps, in the pass
   for the fuzz scripts. *)
let programs state (p : pass) =
  match state with
  | Apps { configs; _ } ->
      List.fold_left
        (fun acc (c : config) -> if List.memq c.compiled acc then acc else acc @ [ c.compiled ])
        [] configs
  | Scripts _ -> p.compiled

(* Kill-free twins of the faults workload's recovering configurations,
   for the host cost of recovery. *)
let twins = function
  | Apps { configs; _ } ->
      List.filter_map (fun c -> Option.map (fun t -> (c, t)) c.twin) configs
  | Scripts _ -> []
