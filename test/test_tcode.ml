(* The SPMD execution engine ([Exec.Vm], pre-decoded threaded code):

   - golden decode listings: one exact-text check per IR opcode family,
     so a decode change is a conscious golden update, not an accident;
   - frame-slot aliasing hazards: interned array slots must preserve
     value semantics (copies are copies) and zero-trip loops must not
     leak or clobber slots that copy propagation style rewrites alias;
   - the acceptance matrix: every benchmark app at P in {2,4,8} on all
     three paper machines reproduces its pinned makespan (bit-exact),
     message count and library-call count, and verifies against the
     reference interpreter.  The pins are the cells two independent
     engines (this one and a direct IR walker, since retired) agreed on
     bit for bit, so "engines identical" now means identical to that
     recorded agreement;
   - chaos recovery: a seeded mid-run rank kill recovers to the exact
     fault-free answer for every app, with pinned clean and recovered
     cells. *)

open Testutil
module Machine = Mpisim.Machine
module Sim = Mpisim.Sim

let t name f = Alcotest.test_case name `Quick f

(* --- golden decode listings --------------------------------------------- *)

let check_listing name src expected =
  let got = Exec.Vm.listing (Otter.compile src).Otter.prog in
  Alcotest.(check string) name expected got

let test_decode_scalar_flow () =
  check_listing "scalars, if/else, printf"
    "x = 2;\ny = x * 3 + 1;\nif y > 5\n z = 1;\nelse\n z = 0;\nend\n\
     fprintf('%g\\n', z);"
    "main:\n\
    \   0  scalar x\n\
    \   1  scalar y\n\
    \   2  if cond\n\
    \   3  scalar z\n\
    \   4  jump endif\n\
    \   5  scalar z\n\
    \   6  printf\n"

let test_decode_loops () =
  check_listing "for (entry/iter/next), while, disp"
    "s = 0;\nfor i = 1:2:9\n s = s + i;\nend\nwhile s > 10\n s = s - 7;\nend\n\
     disp(s);"
    "main:\n\
    \   0  scalar s\n\
    \   1  for i entry\n\
    \   2  for i iter\n\
    \   3  scalar s\n\
    \   4  for i next\n\
    \   5  while entry\n\
    \   6  while cond\n\
    \   7  scalar s\n\
    \   8  jump while\n\
    \   9  print s\n"

let test_decode_matrix_ops () =
  check_listing
    "construct, transpose, matmul(_t), copy, diag, outer, reductions, sort, \
     reduce_loc, trapz, shift"
    "A = rand(6, 6);\nB = A' * A;\nC = A * B;\nt = A';\nd = diag(A);\n\
     u = rand(6, 1);\nw = u * u';\nx = dot(u, u);\ny = sum(u);\ncs = sum(A);\n\
     v = sort(u);\n[mn, ix] = min(u);\nq = trapz(u);\nr = circshift(u, 2);\n\
     fprintf('%g\\n', x + y + mn + ix + q + sum(sum(C)) + sum(sum(w)) + \
     sum(cs) + sum(v) + sum(r) + sum(sum(B)) + sum(sum(t)) + sum(d));"
    "main:\n\
    \   0  construct A\n\
    \   1  transpose ML_tmp2\n\
    \   2  matmul_t B\n\
    \   3  matmul C\n\
    \   4  copy t <- ML_tmp2\n\
    \   5  diag d\n\
    \   6  construct u\n\
    \   7  outer w\n\
    \   8  reduce_fused x2\n\
    \   9  scalar x <- ML_tmp9\n\
    \  10  scalar y <- ML_tmp10\n\
    \  11  reduce_cols cs\n\
    \  12  sort v\n\
    \  13  reduce_loc mn\n\
    \  14  trapz ML_tmp13\n\
    \  15  scalar q <- ML_tmp13\n\
    \  16  shift r\n\
    \  17  reduce_all ML_tmp15\n\
    \  18  reduce_cols ML_tmp16\n\
    \  19  reduce_all ML_tmp17\n\
    \  20  reduce_cols ML_tmp18\n\
    \  21  reduce_fused x4\n\
    \  22  reduce_cols ML_tmp23\n\
    \  23  reduce_all ML_tmp24\n\
    \  24  reduce_cols ML_tmp25\n\
    \  25  reduce_all ML_tmp26\n\
    \  26  printf\n"

let test_decode_elements () =
  check_listing "setelem, elementwise loop, batched broadcast"
    "A = zeros(4, 4);\nA(2, 3) = 5;\np = A(2, 3);\nq = A(1, 1);\nb = A(3, 3);\n\
     E = A + A;\nfprintf('%g\\n', p + q + b + sum(sum(E)));"
    "main:\n\
    \   0  construct A\n\
    \   1  setelem A\n\
    \   2  elem E\n\
    \   3  bcast_batch x3\n\
    \   4  scalar p <- ML_tmp2\n\
    \   5  scalar q <- ML_tmp3\n\
    \   6  scalar b <- ML_tmp4\n\
    \   7  reduce_cols ML_tmp6\n\
    \   8  reduce_all ML_tmp7\n\
    \   9  printf\n"

let test_decode_single_bcast () =
  check_listing "unbatched element broadcast"
    "v = rand(8, 1);\nx = v(3);\nfprintf('%g\\n', x);"
    "main:\n\
    \   0  construct v\n\
    \   1  bcast ML_tmp2\n\
    \   2  scalar x <- ML_tmp2\n\
    \   3  printf\n"

let test_decode_fused_reductions () =
  check_listing "four reductions fuse into one allreduce"
    "v = rand(16, 1);\ns = sum(v);\nm = mean(v);\nn = norm(v);\n\
     d = dot(v, v);\nfprintf('%g\\n', s + m + n + d);"
    "main:\n\
    \   0  construct v\n\
    \   1  reduce_fused x4\n\
    \   2  scalar s <- ML_tmp2\n\
    \   3  scalar m <- ML_tmp3\n\
    \   4  scalar n <- ML_tmp4\n\
    \   5  scalar d <- ML_tmp5\n\
    \   6  printf\n"

let test_decode_functions () =
  check_listing "user function gets its own code section"
    "y = sq(3);\nfprintf('%g\\n', y);\nfunction r = sq(x)\n  r = x * x;\nend"
    "main:\n\
    \   0  call sq/1\n\
    \   1  scalar y <- ML_tmp1\n\
    \   2  printf\n\
     function sq:\n\
    \   0  scalar r\n"

(* --- frame-slot aliasing ------------------------------------------------ *)

(* Interned slots must keep MATLAB's value semantics: a copy is a deep
   copy, a zero-trip loop leaves its targets untouched, and rewrites
   that alias one variable to another (copy propagation style) must
   not let a later store through one name show through the other. *)

let test_aliasing () =
  check_close "scalar copy does not alias" 1.
    (parallel_value "a = 1;\nb = a;\na = 2;\nx = b;" "x");
  check_close "matrix copy is deep" 0.
    (parallel_value "A = zeros(2, 2);\nB = A;\nA(1, 1) = 5;\nx = B(1, 1);" "x");
  check_close "copy then source clobbered in loop" 3.
    (parallel_value
       "a = 3;\nb = a;\nfor i = 1:4\n a = a + 1;\nend\nx = b;" "x");
  check_close "self-referencing update" 6.
    (parallel_value "v = (1:3)';\nv = v + v;\nx = v(2) + v(1);" "x")

let test_zero_trip_slots () =
  check_close "zero-trip loop leaves prior value" 7.
    (parallel_value "s = 7;\nfor i = 1:0\n s = 99;\nend\nx = s;" "x");
  check_close "zero-trip loop with copy inside" 5.
    (parallel_value
       "a = 5;\nb = 0;\nfor i = 2:1\n b = a;\n a = 0;\nend\nx = a + b;" "x");
  check_close "downward zero-trip" 4.
    (parallel_value "s = 4;\nfor i = 1:-1:2\n s = s * 10;\nend\nx = s;" "x");
  check_close "zero-trip keeps loop slot out of scope" 11.
    (parallel_value
       "k = 11;\nfor q = 3:2\n k = q;\nend\nx = k;" "x");
  (* An undefined read after a zero-trip loop must still be the same
     typed error on the decoded engine. *)
  match run_parallel ~nprocs:2 "for i = 1:0\n y = 1;\nend\nx = y;" with
  | exception Exec.Vm.Runtime_error _ -> ()
  | _ -> Alcotest.fail "undefined read after zero-trip loop must error"

(* --- the acceptance matrix --------------------------------------------- *)

let machines =
  [ Machine.meiko_cs2; Machine.enterprise_smp; Machine.sparc20_cluster ]

let machine_named name =
  List.find (fun m -> m.Machine.name = name) machines

(* (machine, P, makespan, messages, library calls) per app, at scale 4:
   the values both engines produced bit-identically before the IR
   walker was retired. *)
let matrix_pins =
  [
    ("cg", [
      ("Meiko CS-2", 2, 0x1.8eff8cbd931dfp-6, 310, 159);
      ("Meiko CS-2", 4, 0x1.d756938a8be2bp-6, 1452, 159);
      ("Meiko CS-2", 8, 0x1.5fa08f013a403p-5, 5416, 159);
      ("Sun Enterprise SMP", 2, 0x1.b4fc3d4475c17p-7, 310, 159);
      ("Sun Enterprise SMP", 4, 0x1.10a2b5b9ea429p-7, 1452, 159);
      ("Sun Enterprise SMP", 8, 0x1.ba2ded495beffp-8, 5416, 159);
      ("SPARC-20 SMP cluster", 2, 0x1.ce18fd2707a6dp-6, 310, 159);
      ("SPARC-20 SMP cluster", 4, 0x1.4d216297ec5d9p-6, 1452, 159);
      ("SPARC-20 SMP cluster", 8, 0x1.cbb2e69caca7bp-3, 5416, 159);
    ]);
    ("ocean", [
      ("Meiko CS-2", 2, 0x1.a8ef77f27fe49p-10, 20, 13);
      ("Meiko CS-2", 4, 0x1.20d48bddef33dp-9, 82, 13);
      ("Meiko CS-2", 8, 0x1.aa3afc8043b23p-9, 294, 13);
      ("Sun Enterprise SMP", 2, 0x1.852f4f90c07d8p-11, 20, 13);
      ("Sun Enterprise SMP", 4, 0x1.a348e65297f43p-11, 82, 13);
      ("Sun Enterprise SMP", 8, 0x1.94704d1083c4cp-10, 294, 13);
      ("SPARC-20 SMP cluster", 2, 0x1.8c0404c76504p-10, 20, 13);
      ("SPARC-20 SMP cluster", 4, 0x1.b54444fe61c57p-10, 82, 13);
      ("SPARC-20 SMP cluster", 8, 0x1.472534b48447cp-4, 294, 13);
    ]);
    ("nbody", [
      ("Meiko CS-2", 2, 0x1.137ab1211fb68p-8, 51, 33);
      ("Meiko CS-2", 4, 0x1.1ede92720803fp-8, 205, 33);
      ("Meiko CS-2", 8, 0x1.5de6e5fda053fp-8, 629, 33);
      ("Sun Enterprise SMP", 2, 0x1.39fc03c2443c8p-9, 51, 33);
      ("Sun Enterprise SMP", 4, 0x1.6e861f51756edp-10, 205, 33);
      ("Sun Enterprise SMP", 8, 0x1.0211b1a972b55p-10, 629, 33);
      ("SPARC-20 SMP cluster", 2, 0x1.4b50a7ffd57f8p-8, 51, 33);
      ("SPARC-20 SMP cluster", 4, 0x1.b48d49378fc99p-9, 205, 33);
      ("SPARC-20 SMP cluster", 8, 0x1.ace386b0ed005p-6, 629, 33);
    ]);
    ("tc", [
      ("Meiko CS-2", 2, 0x1.3e7129e3d4255p-9, 16, 8);
      ("Meiko CS-2", 4, 0x1.462781a42f74cp-9, 88, 8);
      ("Meiko CS-2", 8, 0x1.da480a85bff25p-9, 384, 8);
      ("Sun Enterprise SMP", 2, 0x1.95f4c96b187ccp-10, 16, 8);
      ("Sun Enterprise SMP", 4, 0x1.0f13c8f2c4072p-10, 88, 8);
      ("Sun Enterprise SMP", 8, 0x1.26196f3ccebdcp-10, 384, 8);
      ("SPARC-20 SMP cluster", 2, 0x1.9bcd50804b14p-9, 16, 8);
      ("SPARC-20 SMP cluster", 4, 0x1.10889caa7e7cfp-9, 88, 8);
      ("SPARC-20 SMP cluster", 8, 0x1.38a8f0156ded9p-5, 384, 8);
    ]);
  ]

(* A cell's deterministic counters, the makespan compared bit for bit. *)
let check_cell ~where (o : Exec.Vm.outcome) (span, msgs, calls) =
  Alcotest.(check string)
    (where ^ ": makespan")
    (Printf.sprintf "%h" span)
    (Printf.sprintf "%h" o.report.Sim.makespan);
  Alcotest.(check int) (where ^ ": messages") msgs o.report.Sim.messages;
  Alcotest.(check int) (where ^ ": lib calls") calls o.lib_calls

let eq_captured (a : Exec.Vm.captured) (b : Exec.Vm.captured) =
  let eqf (x : float) (y : float) =
    (Float.is_nan x && Float.is_nan y) || x = y
  in
  match (a, b) with
  | Exec.Vm.Cscalar x, Exec.Vm.Cscalar y -> eqf x y
  | Exec.Vm.Cmat (r1, c1, d1), Exec.Vm.Cmat (r2, c2, d2) ->
      r1 = r2 && c1 = c2 && Array.for_all2 eqf d1 d2
  | _ -> false

(* One app across P in {2,4,8} on all three machines: every cell must
   match its pin and verify against the reference interpreter. *)
let engines_identical key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  List.iter
    (fun (mname, p, span, msgs, calls) ->
      let m = machine_named mname in
      let where = Printf.sprintf "%s P=%d on %s" key p mname in
      check_cell ~where
        (Otter.outcome_exn
           (Otter.run
              (Otter.config ~capture:app.capture ~machine:m ~nprocs:p ())
              c))
        (span, msgs, calls);
      match
        Otter.verify_list
          (Otter.config ~tol:1e-6 ~machine:m ~nprocs:p ~capture:app.capture ())
          c
      with
      | [] -> ()
      | ms ->
          Alcotest.failf "%s: %d interpreter mismatches" where (List.length ms))
    (List.assoc key matrix_pins)

(* --- chaos recovery ----------------------------------------------------- *)

let faults spec =
  match Machine.faults_of_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "bad fault spec: %s" e

let killer ~at ~detect m =
  Machine.with_faults ~reliable:true
    ~faults:
      (faults
         (Printf.sprintf "kill_rank=1,kill_time=%g,detect=%g,seed=7" at detect))
    m

(* (app, clean cell, attempts, recovered cell) on the Meiko at P=4,
   pinned like [matrix_pins]. *)
let chaos_pins =
  [
    ("cg", (0x1.d756938a8be2bp-6, 1452, 159), 2, (0x1.e729c54b4e328p-5, 3616, 159));
    ("ocean", (0x1.20d48bddef33dp-9, 82, 13), 2, (0x1.6070831fda8f4p-7, 676, 13));
    ("nbody", (0x1.1ede92720803fp-8, 205, 33), 2, (0x1.2282e1c72fd59p-6, 1114, 33));
    ("tc", (0x1.462781a42f74cp-9, 88, 8), 2, (0x1.9adc64c55181ep-8, 352, 8));
  ]

(* A seeded mid-run rank kill on the default machine at P=4 must roll
   back and recover to the exact fault-free answer. *)
let chaos_recovers key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let clean_pin, attempts_pin, recovered_pin =
    match List.find_opt (fun (k, _, _, _) -> k = key) chaos_pins with
    | Some (_, c, a, r) -> (c, a, r)
    | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  let m = Machine.meiko_cs2 in
  let where = Printf.sprintf "%s under --chaos" key in
  let clean =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~capture:app.capture ~machine:m ~nprocs:4 ())
         c)
  in
  check_cell ~where:(where ^ " (clean)") clean clean_pin;
  let span = clean.Exec.Vm.report.Sim.makespan in
  let rc =
    Otter.run
      (Otter.config ~capture:app.capture
         ~ckpt_interval:(Float.max 1e-6 (span *. 0.08))
         ~max_recoveries:3
         ~machine:
           (killer ~at:(span *. 0.3) ~detect:(Float.max 0.01 (span *. 0.05)) m)
         ~nprocs:4 ())
      c
  in
  (match rc.Exec.Vm.r_reports with
  | first :: _ ->
      Alcotest.(check int) (where ^ ": kill fired") 1 first.Sim.kills
  | [] -> Alcotest.failf "%s: no attempt reports" where);
  Alcotest.(check int) (where ^ ": attempts") attempts_pin rc.Exec.Vm.r_attempts;
  match rc.Exec.Vm.r_result with
  | Exec.Vm.Complete out ->
      check_cell ~where:(where ^ " (recovered)") out recovered_pin;
      Alcotest.(check string) (where ^ ": output") clean.output out.output;
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name out.Exec.Vm.captures with
          | Some w when eq_captured v w -> ()
          | Some _ ->
              Alcotest.failf "%s: capture %s differs after recovery" where name
          | None ->
              Alcotest.failf "%s: capture %s lost after recovery" where name)
        clean.Exec.Vm.captures
  | Exec.Vm.Partial { detail; _ } ->
      Alcotest.failf "%s: did not recover: %s" where detail

let suite =
  [
    t "golden decode: scalar flow" test_decode_scalar_flow;
    t "golden decode: loops" test_decode_loops;
    t "golden decode: matrix ops" test_decode_matrix_ops;
    t "golden decode: elements" test_decode_elements;
    t "golden decode: single bcast" test_decode_single_bcast;
    t "golden decode: fused reductions" test_decode_fused_reductions;
    t "golden decode: functions" test_decode_functions;
    t "frame-slot aliasing" test_aliasing;
    t "zero-trip loop slots" test_zero_trip_slots;
    t "engines identical: cg" (engines_identical "cg");
    t "engines identical: ocean" (engines_identical "ocean");
    t "engines identical: nbody" (engines_identical "nbody");
    t "engines identical: tc" (engines_identical "tc");
    t "chaos recovery: cg" (chaos_recovers "cg");
    t "chaos recovery: ocean" (chaos_recovers "ocean");
    t "chaos recovery: nbody" (chaos_recovers "nbody");
    t "chaos recovery: tc" (chaos_recovers "tc");
  ]
