(* One benchmark run of one workload: set-up, the compile latency, the
   checking pass, the timed passes, the determinism guards and, when
   asked, the traced run. *)

let now = Span.now

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* What one untraced timed pass measured; [cal] is the calibration time
   taken just before it. *)
type sample = { wall : float; cal : float; words : float; counters : Workload.counters }

(* The deterministic part of a pass, compared across the repeats. *)
let fingerprint s =
  let c = s.counters in
  (c.Workload.makespans, c.Workload.messages, c.Workload.bytes, c.Workload.picks, s.words)

(* --- host speed ------------------------------------------------------------ *)

(* A fixed workload that calls no Otter code: boxed floats in lists, a
   hash table, closures and a float-array loop.  Its time tracks how fast
   the host runs OCaml code at the moment.  On a shared VM that speed
   drifts by a third within minutes, and the drift moved every host time
   by about 18% from run to run; scaling each sample by the calibration
   taken just before it cut that spread to about 3%. *)
let calibrate () =
  Gc.full_major ();
  let t0 = now () in
  let l = List.init 20_000 float_of_int in
  let s = ref 0. in
  for _ = 1 to 40 do
    s := List.fold_left (fun a x -> a +. (x *. 0.5)) !s (List.rev_map (fun x -> x +. 1.) l)
  done;
  let h = Hashtbl.create 64 in
  for i = 1 to 80_000 do
    Hashtbl.replace h (i * 7919 mod 10_007) (float_of_int i)
  done;
  let a = Array.init 100_000 float_of_int in
  for _ = 1 to 40 do
    Array.iteri (fun i x -> a.(i) <- (x *. 1.0000001) +. 1.) a
  done;
  ignore (Sys.opaque_identity (!s, h, a));
  let dt = now () -. t0 in
  Gc.full_major ();
  dt

(* [calibrate]'s time on the VM the bounds were measured on.  Host times
   are reported at that reference speed: [t *. cal_ref /. cal]. *)
let cal_ref = 0.05

let scaled t cal = t *. cal_ref /. cal

(* --- the committed fat-tree baseline -------------------------------------- *)

let scale_baseline = "bench/BENCH_scale_baseline.json"

(* Messages, bytes and picks recorded for (app, fattree, procs, block) at
   [scale], when the committed baseline has such an entry. *)
let baseline_entry ~scale ~app ~procs =
  match In_channel.with_open_bin scale_baseline In_channel.input_all |> Json.of_string with
  | exception _ -> None
  | j when Json.member "scale" j <> Json.Num (float_of_int scale) -> None
  | j -> (
      let entries = match Json.member "entries" j with Json.Arr l -> l | _ -> [] in
      let is k v e = Json.member k e = v in
      match
        List.find_opt
          (fun e ->
            is "app" (Json.Str app) e
            && is "machine" (Json.Str "fattree") e
            && is "procs" (Json.Num (float_of_int procs)) e
            && is "cpus" (Json.Num 0.) e
            && is "dist" (Json.Str "block") e)
          entries
      with
      | None -> None
      | Some e ->
          let int k = match Json.member k e with Json.Num x -> int_of_float x | _ -> -1 in
          Some (int "messages", int "bytes", int "picks"))

(* --- the run -------------------------------------------------------------- *)

type outcome = {
  record : Record.t; (* carries [end_to_end], or [per_layer] when traced *)
  end_to_end : Record.metric list;
  per_layer : Record.metric list; (* empty when untraced *)
  lines : string list; (* human-readable report *)
  provenance : Json.t;
  trace : Span.t option;
}

let m = Record.metric

let measure (w : Workload.t) (p : Workload.params) ~seed ~seconds ~trace : outcome =
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let problem s = problems := s :: !problems in
  let note_runs runs =
    List.iter
      (fun (r : Workload.run) ->
        incr attempted;
        match Workload.disagreement r with
        | None -> ()
        | Some d ->
            incr failed;
            problem (r.label ^ ": " ^ d))
      runs
  in
  (* set-up, several times: the median is [setup_s]; each sample is
     (host seconds, calibration before it) *)
  let setups = ref [] and state = ref None in
  while List.length !setups < 3 || (List.length !setups < 10 && sum (List.map fst !setups) < 1.) do
    state := None;
    let cal = calibrate () in
    let t0 = now () in
    let s = Workload.setup Span.off w p ~seed in
    setups := (now () -. t0, cal) :: !setups;
    state := Some s
  done;
  let state = Option.get !state in
  (* correctness before timing: app configurations against the interpreter *)
  note_runs (Workload.check_apps Span.off state);
  (* the timed phase: whole passes until [seconds] have gone, at least two;
     each pass starts from a collected heap *)
  let samples = ref [] and discarded = ref 0 and first_runs = ref [] in
  let compiles = ref [] and compile_errors = ref [] in
  let t_end = now () +. seconds in
  while List.length !samples < 2 || now () < t_end do
    let cal = calibrate () in
    (* compile latency samples, interleaved with the passes so they
       span the whole run *)
    let c0 = now () in
    while now () -. c0 < 0.05 || !compiles = [] do
      let t0 = now () in
      compile_errors := Workload.compile_all state;
      compiles := (now () -. t0, cal) :: !compiles
    done;
    Gc.full_major ();
    let w0 = Span.alloc_words () in
    let t0 = now () in
    let pass = Workload.pass Span.off state ~seed in
    let wall = now () -. t0 in
    Gc.full_major ();
    let words = Span.alloc_words () -. w0 in
    note_runs pass.Workload.runs;
    discarded := pass.Workload.discarded;
    if !samples = [] then first_runs := List.map (fun r -> Workload.counters [ r ]) pass.Workload.runs;
    samples := { wall; cal; words; counters = Workload.counters pass.Workload.runs } :: !samples
  done;
  let samples = List.rev !samples in
  let first = List.hd samples in
  List.iter problem (List.rev !compile_errors);
  (* a front end or interpreter that starts rejecting scripts would make
     the fuzz pass cheaper while every run it keeps still agrees *)
  if !discarded > Workload.max_discards p then
    problem
      (Printf.sprintf "%d of %d scripts discarded, more than the %d allowed" !discarded
         p.Workload.fuzz_cases (Workload.max_discards p));
  (* determinism guard: every repeat counts exactly what the first did *)
  List.iteri
    (fun i s ->
      if fingerprint s <> fingerprint first then
        problem
          (Printf.sprintf
             "determinism guard: pass %d's modeled time, messages, bytes, \
              picks or words differ from pass 1's"
             (i + 1)))
    samples;
  (* the fat-tree counters against the committed scale baseline, which
     must have them at the workload's own parameters; smaller ones (the
     self-test's) may have none *)
  let baseline_notes = ref [] in
  (match (w.Workload.kind, state) with
  | Workload.Fattree, Workload.Apps { configs; _ } ->
      List.iter2
        (fun (c : Workload.config) (got : Workload.counters) ->
          let app = c.Workload.key in
          match baseline_entry ~scale:p.Workload.scale ~app ~procs:p.Workload.procs with
          | None when p = w.Workload.defaults ->
              problem (app ^ ": no entry in " ^ scale_baseline ^ " to check against")
          | None -> baseline_notes := (app ^ ": no baseline entry") :: !baseline_notes
          | Some expected ->
              if (got.Workload.messages, got.Workload.bytes, got.Workload.picks) = expected then
                baseline_notes := (app ^ ": matches") :: !baseline_notes
              else problem (app ^ ": messages, bytes or picks differ from " ^ scale_baseline))
        configs !first_runs
  | _ -> ());
  let walls = List.map (fun s -> s.wall) samples in
  let wall_s = median (List.map (fun s -> scaled s.wall s.cal) samples) in
  let scaled_median l = median (List.map (fun (t, cal) -> scaled t cal) l) in
  let c = first.counters in
  let end_to_end =
    [
      m "wall_s" "s" wall_s;
      m "setup_s" "s" (scaled_median !setups);
      m "compile_s" "s" (scaled_median !compiles);
      m "sim_events_per_s" "1/s"
        (median
           (List.map
              (fun s -> float_of_int s.counters.Workload.picks /. scaled s.counters.Workload.run_s s.cal)
              samples));
      m "alloc_mwords" "Mwords" (first.words /. 1e6);
      m "peak_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "modeled_s" "sim_s" (Workload.geomean c.Workload.makespans);
      m "messages" "count" (float_of_int c.Workload.messages);
      m "msg_bytes" "bytes" (float_of_int c.Workload.bytes);
    ]
  in
  (* the traced run: set-up and one pass again, then the layer probes *)
  let per_layer, trace_lines, traced =
    if not trace then ([], [], None)
    else begin
      let tr = Span.create () in
      Gc.full_major ();
      (* the traced wall time, on a clock of its own: every span the run
         records lies inside it, and every step inside it is in a span *)
      let trace_t0 = now () in
      let state' = Span.with_span tr "bench.setup" (fun () -> Workload.setup tr w p ~seed) in
      let cal = Span.with_span tr "bench.calibrate" calibrate in
      let pass, pass_s, decoded =
        Span.with_span tr "bench.pass" (fun () ->
            Exec.State.dispatched := 0;
            let t0 = now () in
            let pass = Workload.pass tr state ~seed in
            (pass, now () -. t0, !Exec.State.dispatched))
      in
      let twins, probes =
        Span.with_span tr "bench.probes" (fun () ->
            let twins =
              List.map
                (fun ((cf : Workload.config), twin) ->
                  ( cf,
                    Span.with_span tr "recovery.twin" (fun () ->
                        Workload.run Span.off ~label:(cf.label ^ " without kill")
                          ~expect:(Workload.Output cf.output) twin cf.compiled) ))
                (Workload.twins state)
            in
            (twins, Probe.all tr))
      in
      let trace_wall = now () -. trace_t0 in
      note_runs pass.Workload.runs;
      note_runs (List.map snd twins);
      (* the traced compile route must give the IR [Otter.compile] gives *)
      let programs = Workload.programs state' pass in
      List.iter
        (fun (c : Otter.compiled) ->
          if Otter.dump_ir c <> Otter.dump_ir (Otter.compile ~validate:true c.Otter.source) then
            problem "traced compile: IR differs from Otter.compile")
        programs;
      let totals = Span.totals tr in
      let total name = Option.value (Hashtbl.find_opt totals name) ~default:(0., 0., 0) in
      let self name = let s, _, _ = total name in s in
      let self_mwords name = let _, w, _ = total name in w /. 1e6 in
      let sum_programs f = List.fold_left (fun a c -> a + f c) 0 programs in
      let parse_bytes = sum_programs (fun c -> String.length c.Otter.source) in
      (* what [Spmd.Pass.run_pipeline] recorded for pass [name] *)
      let pass_total name f =
        List.fold_left
          (fun a (c : Otter.compiled) ->
            List.fold_left
              (fun a (r : Spmd.Pass.record) -> if r.Spmd.Pass.pass = name then a +. f r else a)
              a c.Otter.passes)
          0. programs
      in
      let spmd_pass_s name = pass_total name (fun r -> r.Spmd.Pass.seconds) in
      let rewrites name = pass_total name (fun r -> float_of_int r.Spmd.Pass.rewrites) in
      let c = Workload.counters pass.Workload.runs in
      let fl = float_of_int in
      let ratio a b = if b > 0. then a /. b else 0. in
      let data_msgs = fl (c.Workload.messages - c.Workload.acks) in
      let extra_wall =
        sum (List.map (fun ((cf : Workload.config), (t : Workload.run)) ->
            let r = List.find (fun (r : Workload.run) -> r.label = cf.label) pass.Workload.runs in
            r.host_s -. t.host_s) twins)
      in
      let roots = Span.roots tr in
      let self_sum = sum (List.map Span.self_s (Span.spans tr)) in
      let overhead = scaled pass_s cal -. wall_s in
      let metrics =
        [
          m "mlang.parse_s" "s" (self "mlang.parse");
          m "mlang.parse_mb_per_s" "MB/s" (ratio (fl parse_bytes /. 1e6) (self "mlang.parse"));
          m "analysis.frontend_s" "s" (self "analysis.frontend");
          m "spmd.lower_s" "s" (self "spmd.lower");
        ]
        @ List.map (fun n -> m ("spmd." ^ n ^ ".s") "s" (spmd_pass_s n)) Workload.o2
        @ [
            (* the pipeline's time outside its passes: validation and pruning *)
            m "spmd.validate_s" "s" (self "spmd.pipeline" -. sum (List.map spmd_pass_s Workload.o2));
            m "codegen.emit_s" "s" (self "codegen.emit");
            m "codegen.c_kb" "KB" (fl pass.Workload.c_bytes /. 1024.);
          ]
        @ List.map (fun n -> m ("spmd." ^ n ^ ".rewrites") "count" (rewrites n)) Workload.o2
        @ [
            m "spmd.ir_insts" "count" (fl (sum_programs Workload.ir_insts));
            m "exec.lib_calls" "count" (fl c.Workload.lib_calls);
            m "exec.run_s" "s" (self "exec.run");
            m "exec.run_mwords" "Mwords" (self_mwords "exec.run");
            m "exec.decoded_ops" "count" (fl decoded);
            m "interp.s" "s" (self "interp");
            m "interp.mwords" "Mwords" (self_mwords "interp");
            m "sim.picks" "count" (fl c.Workload.picks);
            m "sim.picks_per_s" "1/s" (ratio (fl c.Workload.picks) c.Workload.run_s);
            m "sim.words_per_msg" "words" (ratio (fl c.Workload.bytes /. 8.) (fl c.Workload.messages));
            m "sim.compute_share" "ratio" (ratio c.Workload.compute c.Workload.rank_time);
            m "reliable.retries" "count" (fl c.Workload.retries);
            m "reliable.acks" "count" (fl c.Workload.acks);
            m "reliable.drops" "count" (fl c.Workload.drops);
            m "reliable.goodput" "ratio" (ratio (data_msgs -. fl c.Workload.retries) data_msgs);
            m "recovery.attempts" "count" (fl c.Workload.rollbacks);
            m "recovery.penalty_s" "sim_s" c.Workload.penalty;
            m "recovery.extra_wall_s" "s" extra_wall;
          ]
        @ probes
        @ [
            m "trace.wall_s" "s" trace_wall;
            m "trace.self_sum_s" "s" self_sum;
            m "trace.bench_self_s" "s" (sum (List.map Span.self_s roots));
            m "trace.pass_s" "s" pass_s;
            m "trace.host_speed" "ratio" (cal_ref /. cal);
            m "trace.overhead_s" "s" overhead;
            m "trace.overhead_frac" "ratio" (ratio overhead wall_s);
          ]
      in
      (* what lies outside the spans is a few calls between them *)
      if Float.abs (self_sum -. trace_wall) > 1e-3 *. trace_wall then
        problem
          (Printf.sprintf "trace: span self times sum to %.6f s, the traced wall time is %.6f s"
             self_sum trace_wall);
      ( metrics,
        [
          Printf.sprintf
            "traced pass %.4f s vs untraced median %.4f s at reference speed: overhead %+.4f s \
             (%+.2f%%)"
            (scaled pass_s cal) wall_s overhead (100. *. ratio overhead wall_s);
        ],
        Some tr )
    end
  in
  let correct = !problems = [] in
  let record =
    {
      Record.correct;
      attempted = max 1 !attempted;
      failed = !failed;
      metrics = (if trace then per_layer else end_to_end);
    }
  in
  let gc = Gc.get () in
  let nums l = Json.Arr (List.map (fun x -> Json.Num x) l) in
  let provenance =
    Json.Obj
      [
        ("workload", Json.Str w.Workload.name);
        ("seed", Json.Num (float_of_int seed));
        ("scale", Json.Num (float_of_int p.Workload.scale));
        ("procs", Json.Num (float_of_int p.Workload.procs));
        ("fuzz_cases", Json.Num (float_of_int p.Workload.fuzz_cases));
        ("seconds", Json.Num seconds);
        ("passes", Json.Num (float_of_int (List.length samples)));
        ("pass_walls", nums walls);
        ("pass_calibrations", nums (List.map (fun s -> s.cal) samples));
        ("cal_ref", Json.Num cal_ref);
        ("raw_wall_s", Json.Num (median walls));
        ("raw_setup_s", Json.Num (median (List.map fst !setups)));
        ("raw_compile_s", Json.Num (median (List.map fst !compiles)));
        ("setups", Json.Num (float_of_int (List.length !setups)));
        ("discarded", Json.Num (float_of_int !discarded));
        ("failed_frac", Json.Num (float_of_int !failed /. float_of_int (max 1 !attempted)));
        ("baseline", Json.Arr (List.rev_map (fun s -> Json.Str s) !baseline_notes));
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ( "gc",
          Json.Obj
            [
              ("minor_heap_words", Json.Num (float_of_int gc.Gc.minor_heap_size));
              ("space_overhead", Json.Num (float_of_int gc.Gc.space_overhead));
            ] );
        ( "trace_overhead_s",
          match List.find_opt (fun (x : Record.metric) -> x.name = "trace.overhead_s") per_layer with
          | Some x -> Json.Num x.value
          | None -> Json.Null );
        ("problems", Json.Arr (List.rev_map (fun s -> Json.Str s) !problems));
      ]
  in
  let lines =
    List.map
      (fun (x : Record.metric) -> Printf.sprintf "%-28s %16.6g %s" x.name x.value x.unit_)
      record.Record.metrics
    @ trace_lines
    @ List.rev_map (fun s -> "FAILED " ^ s) !problems
  in
  { record; end_to_end; per_layer; lines; provenance; trace = traced }
