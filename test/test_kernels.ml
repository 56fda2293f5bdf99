(* The shared dense kernels ([Runtime.Kernels]) and the behaviour their
   callers must keep: out-of-bounds diagnostics and store order of the
   interpreter's and the run-time library's rank-N sections, gemm
   against a naive reference bit for bit, the distributed products
   against the interpreter's, and allocation bounds. *)

module Sim = Mpisim.Sim
module Dmat = Runtime.Dmat
module Ndarr = Runtime.Ndarr
module Ops = Runtime.Ops

let t name f = Alcotest.test_case name `Quick f
let machine = Mpisim.Machine.meiko_cs2

(* --- interpreter sections: error text and store order ---------------- *)

let interp_error src =
  match Testutil.run_interp src with
  | exception Interp.Eval.Runtime_error msg -> Some msg
  | _ -> None

(* The reported subscript is that of the first failing element in
   row-major order, and within that element the lowest failing axis;
   an empty section reports nothing. *)
let test_interp_oob_text () =
  let pre = "T = zeros(2, 3, 4);\n" in
  List.iter
    (fun (what, body, expected) ->
      Alcotest.(check (option string)) what expected (interp_error (pre ^ body)))
    [
      ("scalar read", "x = T(3, 1, 1);", Some "index 3 out of bounds (extent 2)");
      ( "read: later element, later axis",
        "x = T([1, 3], [1, 5], :);",
        Some "index 5 out of bounds (extent 3)" );
      ( "read: first element, lowest axis",
        "x = T([3, 1], [5, 1], :);",
        Some "index 3 out of bounds (extent 2)" );
      ( "read: first element, second axis",
        "x = T([1, 3], [5, 1], :);",
        Some "index 5 out of bounds (extent 3)" );
      ("read: empty section", "x = T(1:0, 9, 1);", None);
      ("scalar store", "T(1, 1, 5) = 1;", Some "index 5 out of bounds (extent 4)");
      ( "store: later element, later axis",
        "T([1, 3], [1, 5], 1) = 7;",
        Some "index 5 out of bounds (extent 3)" );
      ( "store: first element, lowest axis",
        "T([3, 1], [1, 5], 1) = 7;",
        Some "index 3 out of bounds (extent 2)" );
      ("store: empty section", "T(1:0, 9, 1) = 5;", None);
    ]

(* A repeated subscript stores in row-major order: the last write wins. *)
let dup_store_src =
  "X = zeros(2, 2, 2);\nX(1, 1, 1) = 1;\nX(1, 2, 2) = 2;\nX(2, 1, 1) = 3;\n\
   X(2, 2, 2) = 4;\nT = zeros(2, 2, 2);\nT([1, 1], :, :) = X;\n"

let dup_store_expected = [| 3.; 0.; 0.; 4.; 0.; 0.; 0.; 0. |]

let test_duplicate_subscripts () =
  let _, caps = Testutil.run_interp ~capture:[ "T" ] dup_store_src in
  let dims, data = Testutil.interp_tensor caps "T" in
  Alcotest.(check (array int)) "dims" [| 2; 2; 2 |] dims;
  Alcotest.(check (array (float 0.))) "interpreter" dup_store_expected data;
  List.iter
    (fun p ->
      let _, caps = Testutil.run_parallel ~nprocs:p ~capture:[ "T" ] dup_store_src in
      let _, data = Testutil.vm_tensor caps "T" in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "compiled, P=%d" p)
        dup_store_expected data)
    [ 1; 2; 3 ]

(* --- run-time library sections: check every subscript first --------- *)

let ops_failure p f =
  match Sim.run ~machine ~nprocs:p (fun _ -> f ()) with
  | exception Sim.Rank_failure { exn = Failure msg; _ } -> Some msg
  | _ -> None

let test_ops_section_text () =
  let dims = [| 2; 3; 4 |] in
  let tensor () = Ndarr.init dims float_of_int in
  List.iter
    (fun p ->
      List.iter
        (fun (what, sels, expected) ->
          Alcotest.(check (option string))
            (Printf.sprintf "nd_section %s, P=%d" what p)
            (Option.map (fun m -> "section: " ^ m) expected)
            (ops_failure p (fun () -> ignore (Ops.nd_section (tensor ()) sels)));
          Alcotest.(check (option string))
            (Printf.sprintf "nd_set_section %s, P=%d" what p)
            (Option.map (fun m -> "section assignment: " ^ m) expected)
            (ops_failure p (fun () ->
                 Ops.nd_set_section (tensor ()) sels (fun _ -> 1.))))
        [
          ( "axis order",
            [| [| 0; 5 |]; [| 0; 7 |]; [| 0 |] |],
            Some "index 6 out of bounds (extent 2, axis 1)" );
          ( "empty section still checked",
            [| [||]; [| 0; 7 |]; [| 0 |] |],
            Some "index 8 out of bounds (extent 3, axis 2)" );
          ("negative", [| [| 0 |]; [| 0 |]; [| -1 |] |],
            Some "index 0 out of bounds (extent 4, axis 3)");
          ("in bounds", [| [| 1; 0 |]; [| 2 |]; [| 3; 0; 1 |] |], None);
        ])
    [ 1; 3 ]

(* --- gemm ----------------------------------------------------------- *)

let bits = Int64.bits_of_float

(* Entries that probe IEEE corner cases, plus ordinary values. *)
let entry_gen =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ 0.; -0.; 1.; -1.; nan; infinity; neg_infinity; 4.9e-324; -2.2e-310 ] );
        (3, float_range (-8.) 8.);
      ])

type gemm_case = {
  m : int;
  k : int;
  n : int;
  aoff : int;
  a : float array;
  b : float array;
  c : float array;
}

(* Shapes reach every tile and tail of the kernel: row blocks of four
   with a leftover row or three, odd n and n mod 4 <> 0, n = 1 and the
   m = 1 row-vector product, with short and long runs of k. *)
let gemm_gen =
  QCheck.Gen.(
    let* m = int_range 0 9
    and* k = frequency [ (3, int_range 0 9); (2, oneofl [ 63; 64; 65; 129 ]) ]
    and* n = frequency [ (1, return 1); (3, int_range 0 13) ] in
    let* aoff = int_range 0 5 in
    let* a = array_repeat (aoff + (m * k)) entry_gen in
    let* b = array_repeat (k * n) entry_gen in
    let+ c = array_repeat (m * n) entry_gen in
    { m; k; n; aoff; a; b; c })

let print_gemm g = Printf.sprintf "m=%d k=%d n=%d aoff=%d" g.m g.k g.n g.aoff

(* The textbook i-j-k loop with an accumulator started at C's value. *)
let naive_gemm g =
  Array.init (g.m * g.n) (fun idx ->
      let i = idx / g.n and j = idx mod g.n in
      let acc = ref g.c.(idx) in
      for kk = 0 to g.k - 1 do
        acc := !acc +. (g.a.(g.aoff + (i * g.k) + kk) *. g.b.((kk * g.n) + j))
      done;
      !acc)

let prop_gemm =
  Testutil.qtest ~count:500 "gemm = naive i-j-k, bit for bit"
    (QCheck.make ~print:print_gemm gemm_gen)
    (fun g ->
      let c = Array.copy g.c in
      Runtime.Kernels.gemm ~m:g.m ~k:g.k ~n:g.n g.a ~aoff:g.aoff g.b c;
      Array.for_all2 (fun x y -> bits x = bits y) c (naive_gemm g))

(* --- the section walker against an element-by-element walk ------------ *)

type walk_case = { dims : int array; sels : int array array; lo : int; hi : int }

(* In-bounds selections only: checking subscripts is the caller's job. *)
let walk_gen =
  QCheck.Gen.(
    let* r = int_range 1 4 in
    let* dims = array_repeat r (int_range 0 3) in
    let* sels =
      flatten_a
        (Array.map
           (fun d -> if d = 0 then return [||] else array_size (int_range 0 3) (int_range 0 (d - 1)))
           dims)
    in
    let* lo = int_range 0 (Array.length sels.(0)) in
    let+ hi = int_range lo (Array.length sels.(0)) in
    { dims; sels; lo; hi })

let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a))

let print_walk w =
  Printf.sprintf "dims [%s] sels [%s] lo %d hi %d" (ints w.dims)
    (String.concat " | " (Array.to_list (Array.map ints w.sels)))
    w.lo w.hi

(* Decode each row-major position of the selection into per-axis
   positions: the loop the walker replaced. *)
let naive_positions counts =
  let r = Array.length counts in
  let total = Array.fold_left ( * ) 1 counts in
  List.init total (fun pos ->
      let rem = ref pos and sub = Array.make r 0 in
      for axis = r - 1 downto 0 do
        sub.(axis) <- !rem mod counts.(axis);
        rem := !rem / counts.(axis)
      done;
      (pos, sub))

let naive_walk w =
  let counts = Array.map Array.length w.sels in
  let inner = Array.fold_left ( * ) 1 counts / max 1 counts.(0) in
  naive_positions counts
  |> List.filter (fun (pos, _) -> pos >= w.lo * inner && pos < w.hi * inner)
  |> List.map (fun (pos, sub) ->
         let off = ref 0 in
         Array.iteri (fun axis j -> off := (!off * w.dims.(axis)) + w.sels.(axis).(j)) sub;
         (pos, !off))

let prop_walk =
  Testutil.qtest ~count:1000 "walk = element-by-element walk"
    (QCheck.make ~print:print_walk walk_gen)
    (fun w ->
      let visits = ref [] in
      Runtime.Kernels.walk ~lo:w.lo ~hi:w.hi w.dims w.sels (fun pos off ->
          visits := (pos, off) :: !visits);
      List.rev !visits = naive_walk w)

(* The interpreter's out-of-bounds report, for any selection: the
   subscript an element-by-element walk meets first, checking the axes
   of each element in order. *)
let section_oob_gen =
  QCheck.Gen.(
    let* dims = array_repeat 3 (int_range 2 3) in
    let+ sels =
      flatten_a (Array.map (fun d -> array_size (int_range 0 3) (int_range (-1) d)) dims)
    in
    (dims, sels))

let naive_oob dims sels =
  naive_positions (Array.map Array.length sels)
  |> List.find_map (fun (_, sub) ->
         let bad = ref None in
         Array.iteri
           (fun axis j ->
             let i = sels.(axis).(j) in
             if !bad = None && (i < 0 || i >= dims.(axis)) then
               bad := Some (Printf.sprintf "index %d out of bounds (extent %d)" (i + 1) dims.(axis)))
           sub;
         !bad)

let prop_interp_oob =
  Testutil.qtest ~count:300 "interpreter reports the first failing subscript"
    (QCheck.make
       ~print:(fun (dims, sels) ->
         Printf.sprintf "dims [%s] sels [%s]" (ints dims)
           (String.concat " | " (Array.to_list (Array.map ints sels))))
       section_oob_gen)
    (fun (dims, sels) ->
      let subs =
        Array.to_list sels
        |> List.map (fun s ->
               if s = [||] then "1:0"
               else "[" ^ String.concat ", " (Array.to_list (Array.map (fun i -> string_of_int (i + 1)) s)) ^ "]")
        |> String.concat ", "
      in
      let pre =
        Printf.sprintf "T = zeros(%s);\n"
          (String.concat ", " (Array.to_list (Array.map string_of_int dims)))
      in
      let expected = naive_oob dims sels in
      interp_error (pre ^ "x = T(" ^ subs ^ ");") = expected
      && interp_error (pre ^ "T(" ^ subs ^ ") = 7;") = expected)

(* --- distributed products against the interpreter ---------------------- *)

(* Each element of A*B (m > 1) is formed on one rank in kk order, so it
   is bit-identical for any data.  Row-vector products and A'*B finish
   with an allreduce over ranks, so their data are small integers,
   whose sums are exact in any order. *)
let product_src =
  "A = rand(7, 5) - 0.5;
B = rand(5, 6) * 3;
v = rand(5, 1);
C = A * B;
   w = A * v;
M = floor(rand(6, 4) * 9) - 4;
N = floor(rand(6, 3) * 9) - 4;
   u = floor(rand(1, 6) * 9) - 4;
D = M' * N;
x = u * N;
d = u * u';
"

let product_vars = [ "C"; "w"; "D"; "x"; "d" ]

let test_products_match_interpreter () =
  let c = Otter.compile product_src in
  let reference =
    (Otter.interpret (Otter.config ~capture:product_vars ()) (Otter.compile_frontend product_src))
      .Interp.Eval.captures
  in
  let as_bits = function
    | Interp.Eval.Cscalar f -> [| bits f |]
    | Interp.Eval.Cmat (_, _, d) | Interp.Eval.Cnd (_, d) -> Array.map bits d
  in
  let vm_bits = function
    | Exec.State.Cscalar f -> [| bits f |]
    | Exec.State.Cmat (_, _, d) | Exec.State.Cnd (_, d) -> Array.map bits d
  in
  List.iter
    (fun (p, layouts) ->
      List.iter
        (fun layout ->
          let o =
            Otter.outcome_exn
              (Otter.run (Otter.config ~nprocs:p ~layout ~capture:product_vars ()) c)
          in
          List.iter
            (fun name ->
              Alcotest.(check (array int64))
                (Printf.sprintf "%s, P=%d, %s" name p (Otter.Config.layout_name layout))
                (as_bits (List.assoc name reference))
                (vm_bits (List.assoc name o.Exec.State.captures)))
            product_vars)
        layouts)
    Dmat.
      [
        (1, [ Lblock; Lcyclic 2; Lgrid (1, 1) ]);
        (3, [ Lblock; Lcyclic 2; Lgrid (3, 1); Lgrid (1, 3) ]);
        (4, [ Lblock; Lcyclic 2; Lgrid (2, 2) ]);
      ]

(* --- allocation ---------------------------------------------------------- *)

(* Words allocated by [f], minor and major heap together, less what
   measuring itself allocates.  Direct major allocations reach the
   counters only at GC slices, so flush first. *)
let words f =
  let allocated () =
    Gc.minor ();
    ignore (Gc.major_slice 0);
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure f =
    let w0 = allocated () in
    f ();
    allocated () -. w0
  in
  measure f -. measure ignore

(* Every tile and tail: square, n = 1 with leftover rows, odd m and
   n, n mod 4 <> 0, several k-blocks, and the m = 1 row vector. *)
let test_gemm_allocation () =
  List.iter
    (fun (m, k, n) ->
      let a = Array.init (1 + (m * k)) float_of_int and b = Array.make (k * n) 0.5 in
      let c = Array.make (m * n) 0. in
      let gemm () = Runtime.Kernels.gemm ~m ~k ~n a ~aoff:1 b c in
      gemm ();
      let w0 = Gc.minor_words () in
      gemm ();
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words, %dx%dx%d" m k n)
        0. (Gc.minor_words () -. w0))
    [ (64, 64, 64); (64, 64, 1); (67, 130, 1); (67, 130, 7); (5, 130, 13); (1, 130, 6); (1, 200, 1) ]

(* A 64x64 product in the interpreter allocates about its 4096-element
   result, not words per multiply-add. *)
let test_interp_matmul_allocation () =
  let pre = "A = rand(64, 64);
B = rand(64, 64);
" in
  let run src = words (fun () -> ignore (Testutil.run_interp src)) in
  ignore (run pre);
  let extra = run (pre ^ "C = A * B;
") -. run pre in
  if extra > 3. *. 4096. then
    Alcotest.failf "A * B allocated %.0f words for a 4096-element result" extra

(* The walk itself allocates O(rank) words, whatever the section size. *)
let test_walk_allocation () =
  List.iter
    (fun (dims, sels) ->
      let sum = ref 0 in
      let f _ off = sum := !sum + off in
      let walk () = Runtime.Kernels.walk dims sels f in
      walk ();
      let w = words walk in
      let bound = float_of_int (16 + (4 * Array.length dims)) in
      if w > bound then
        Alcotest.failf "rank-%d walk of %d elements allocated %.0f words"
          (Array.length dims)
          (Array.fold_left (fun n s -> n * Array.length s) 1 sels)
          w)
    [
      ([| 16; 16; 16 |], Array.make 3 (Array.init 16 Fun.id));
      ([| 8; 8; 8; 8 |], [| [| 7; 0; 7 |]; Array.init 8 Fun.id; [| 1; 1 |]; Array.init 8 Fun.id |]);
    ]

let suite =
  [
    prop_gemm;
    prop_walk;
    prop_interp_oob;
    t "products match the interpreter bit for bit" test_products_match_interpreter;
    t "gemm does not allocate" test_gemm_allocation;
    t "interpreted A*B allocates O(output)" test_interp_matmul_allocation;
    t "a section walk allocates O(rank)" test_walk_allocation;
    t "interpreter section bounds text" test_interp_oob_text;
    t "duplicate subscripts: last write wins" test_duplicate_subscripts;
    t "run-time section bounds text" test_ops_section_text;
  ]
