(* Self-tests of the benchmark's own code: the metric-name grammar, the
   result record's round trip, span accounting, and a tiny-scale smoke
   pass of every workload whose metrics must be exactly the ones
   BENCHMARK.json declares. *)

open Perfbench

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Record.valid_name n))
    [ "wall_s"; "spmd.fold-construct.s"; "coll.allgatherv.messages"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Record.valid_name n))
    [ ""; "_lead"; ".dot"; "sp ace"; "semi;colon"; "slash/s"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Record.valid_unit "1/s");
  Alcotest.(check bool) "unit with space" false (Record.valid_unit "m s");
  Alcotest.check_raises "bad name is refused" (Invalid_argument "metric name: a b") (fun () ->
      ignore (Record.metric "a b" "s" 1.))

let test_round_trip () =
  let r =
    {
      Record.correct = true;
      attempted = 9600;
      failed = 0;
      metrics =
        [
          Record.metric "wall_s" "s" 0.80062949657440186;
          Record.metric "modeled_s" "s" 6.7034816190381715e-05;
          Record.metric "messages" "count" 134098.;
          Record.metric "overhead" "ratio" (-0.0757597);
          Record.metric "tiny" "s" 1e-300;
        ];
    }
  in
  let s = Record.to_string r in
  Alcotest.(check bool) "bit-exact round trip" true (Record.of_string s = r);
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  let j =
    Json.Obj
      [ ("s", Json.Str "quote \" back \\ nl \n tab \t"); ("a", Json.Arr [ Json.Null; Json.Bool false ]) ]
  in
  Alcotest.(check bool) "json round trip" true (Json.of_string (Json.to_string j) = j);
  Alcotest.check_raises "trailing garbage" (Json.Parse_error "trailing characters at offset 3") (fun () ->
      ignore (Json.of_string "{} x"))

let test_spans () =
  let tr = Span.create () in
  let spin s = let t0 = Span.now () in while Span.now () -. t0 < s do () done in
  Span.with_span tr "root" (fun () ->
      spin 0.002;
      Span.with_span tr "a" (fun () -> spin 0.002; Span.with_span tr "b" (fun () -> spin 0.002));
      (try Span.with_span tr "c" (fun () -> failwith "boom") with Failure _ -> ()));
  let root = List.hd (Span.roots tr) in
  let self_sum = List.fold_left (fun a sp -> a +. Span.self_s sp) 0. (Span.spans tr) in
  Alcotest.(check (float 1e-9)) "self times add up to the root" (Span.duration root) self_sum;
  Alcotest.(check int) "a raising span is still closed" 4 (List.length (Span.spans tr));
  let a = List.find (fun (sp : Span.span) -> sp.name = "a") (Span.spans tr) in
  Alcotest.(check bool) "a's self time excludes b" true (Span.self_s a < Span.duration a -. 0.001)

let declared key =
  let b = Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  match Json.member key b with
  | Json.Arr l ->
      List.map (fun m -> match (Json.member "name" m, Json.member "unit" m) with
        | Json.Str n, Json.Str u -> (n, u) | _ -> Alcotest.fail "malformed BENCHMARK.json") l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let names ms = List.map (fun (m : Record.metric) -> (m.name, m.unit_)) ms

(* Tiny sizes: 8-element apps, 32 ranks on the fat-tree, 10 scripts. *)
let tiny (w : Workload.t) =
  match w.kind with
  | Workload.Fuzz_scripts -> { w.defaults with Workload.fuzz_cases = 10 }
  | Workload.Fattree -> { w.defaults with Workload.scale = 1; procs = 32 }
  | _ -> { w.defaults with Workload.scale = 1 }

let smoke (w : Workload.t) () =
  let o = Bench.measure w (tiny w) ~seed:3 ~seconds:0.01 ~trace:true in
  let r = o.Bench.record in
  if not r.Record.correct then Alcotest.fail (String.concat "\n" o.Bench.lines);
  Alcotest.(check int) "no failed runs" 0 r.Record.failed;
  Alcotest.(check bool) "attempted something" true (r.Record.attempted > 0);
  Alcotest.(check (list (pair string string))) "end-to-end metrics as declared" (declared "end_to_end")
    (names o.Bench.end_to_end);
  Alcotest.(check (list (pair string string))) "per-layer metrics as declared" (declared "per_layer")
    (names o.Bench.per_layer);
  List.iter
    (fun (m : Record.metric) ->
      if m.value <= 0. then Alcotest.failf "end-to-end metric %s is %g" m.name m.value)
    o.Bench.end_to_end

let () =
  Alcotest.run "perfbench"
    [
      ( "record",
        [
          Alcotest.test_case "metric-name grammar" `Quick test_names;
          Alcotest.test_case "result round trip" `Quick test_round_trip;
          Alcotest.test_case "span self times" `Quick test_spans;
        ] );
      ("smoke", List.map (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (smoke w)) Workload.all);
    ]
