(* The simulator's schedule, pinned: the fat-tree entries of the
   committed scale baseline at P = 32 and 64 must reproduce exactly --
   messages, bytes and scheduler picks equal, modeled time equal to the
   file's printed precision.  Any change to the simulator core that
   moves a single scheduling decision shows up here.  The file is read,
   and each entry re-run, by the same code [bench scale] uses. *)

open Scale_baseline

let t name f = Alcotest.test_case name `Quick f

(* The committed baseline, found upward from the working directory (the
   dune sandbox copies it beside the test). *)
let baseline =
  let file = "bench/BENCH_scale_baseline.json" in
  let rec up dir n =
    let path = Filename.concat dir file in
    if n = 0 || Sys.file_exists path then path
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8
let scale = 25

(* The fat-tree entries at P = 32 and 64 with one CPU per rank. *)
let pinned_entries () =
  let file_scale, entries = read baseline in
  if file_scale <> scale then
    Alcotest.failf "%s was recorded at scale %d, expected %d" baseline
      file_scale scale;
  List.filter
    (fun e ->
      e.sc_machine = "fattree" && e.sc_cpus = 0
      && (e.sc_procs = 32 || e.sc_procs = 64))
    entries

let test_fattree_schedule_pinned () =
  let entries = pinned_entries () in
  Alcotest.(check bool)
    "baseline has pinned entries" true
    (List.length entries >= 8);
  List.iter
    (fun b ->
      match Apps.Scripts.find b.sc_app with
      | None -> Alcotest.failf "unknown app %S in %s" b.sc_app baseline
      | Some app ->
          let c = Otter.compile (app.Apps.Scripts.source scale) in
          let e =
            measure ~app:b.sc_app
              ~machine:("fattree", Mpisim.Machine.fattree_default)
              ~procs:b.sc_procs ~cpus:0 ~dist:b.sc_dist c
          in
          let what s =
            Printf.sprintf "%s P=%d %s: %s" b.sc_app b.sc_procs b.sc_dist s
          in
          Alcotest.(check int) (what "messages") b.sc_messages e.sc_messages;
          Alcotest.(check int) (what "bytes") b.sc_bytes e.sc_bytes;
          Alcotest.(check int) (what "picks") b.sc_picks e.sc_picks;
          Alcotest.(check string) (what "modeled time")
            (Printf.sprintf "%.9f" b.sc_time)
            (Printf.sprintf "%.9f" e.sc_time))
    entries

let suite =
  [
    t "fat-tree P=32,64 schedule matches the scale baseline"
      test_fattree_schedule_pinned;
  ]
