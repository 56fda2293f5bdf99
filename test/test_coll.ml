(* Collective-operation tests: correctness against sequential
   references for every operation, on assorted processor counts,
   plus qcheck properties. *)

module Sim = Mpisim.Sim
module Coll = Mpisim.Coll

let t name f = Alcotest.test_case name `Quick f
let machine = Mpisim.Machine.meiko_cs2
let procs = [ 1; 2; 3; 4; 7; 8; 16 ]

let on_all_p body check =
  List.iter
    (fun p ->
      let results, _ = Sim.run ~machine ~nprocs:p body in
      Array.iteri (fun r v -> check ~p ~r v) results)
    procs

let test_bcast () =
  List.iter
    (fun root ->
      let results, _ =
        Sim.run ~machine ~nprocs:8 (fun rank ->
            let data = if rank = root then [| 3.; 1.; 4. |] else [||] in
            Coll.bcast ~root data)
      in
      Array.iteri
        (fun r v ->
          Testutil.check_array_close
            (Printf.sprintf "bcast root=%d rank=%d" root r)
            [| 3.; 1.; 4. |] v)
        results)
    [ 0; 1; 5; 7 ]

let test_reduce_sum () =
  let results, _ =
    Sim.run ~machine ~nprocs:8 (fun rank ->
        Coll.reduce ~root:0 ~op:Coll.Sum [| float_of_int rank; 1. |])
  in
  Testutil.check_array_close "root value" [| 28.; 8. |] results.(0)

let test_allreduce_ops () =
  let inputs p rank = float_of_int ((rank * 3 mod p) + 1) in
  List.iter
    (fun (op, reference) ->
      on_all_p
        (fun rank ->
          let p = Sim.size () in
          Coll.allreduce_scalar ~op (inputs p rank))
        (fun ~p ~r v ->
          let expected =
            let vals = List.init p (fun rk -> inputs p rk) in
            List.fold_left reference (List.hd vals) (List.tl vals)
          in
          Testutil.check_close (Printf.sprintf "P=%d rank=%d" p r) expected v))
    [
      (Coll.Sum, ( +. ));
      (Coll.Prod, ( *. ));
      (Coll.Min, Float.min);
      (Coll.Max, Float.max);
    ]

let test_allreduce_logical () =
  let results, _ =
    Sim.run ~machine ~nprocs:4 (fun rank ->
        let has = if rank = 2 then 1. else 0. in
        ( Coll.allreduce_scalar ~op:Coll.Lor has,
          Coll.allreduce_scalar ~op:Coll.Land has ))
  in
  Array.iter
    (fun (any_v, all_v) ->
      Testutil.check_close "lor" 1. any_v;
      Testutil.check_close "land" 0. all_v)
    results

let test_gatherv () =
  on_all_p
    (fun rank ->
      let p = Sim.size () in
      let counts = Array.init p (fun i -> i + 1) in
      let local = Array.make counts.(rank) (float_of_int rank) in
      Coll.gatherv ~root:0 ~counts local)
    (fun ~p ~r v ->
      if r = 0 then begin
        let expected =
          Array.concat
            (List.init p (fun i -> Array.make (i + 1) (float_of_int i)))
        in
        Testutil.check_array_close (Printf.sprintf "gatherv P=%d" p) expected v
      end
      else Alcotest.(check int) "non-root empty" 0 (Array.length v))

let test_allgatherv () =
  on_all_p
    (fun rank ->
      let p = Sim.size () in
      let counts = Array.init p (fun i -> ((i * 2) mod 3) + 1) in
      let local =
        Array.init counts.(rank) (fun k -> (float_of_int rank *. 10.) +. float_of_int k)
      in
      Coll.allgatherv ~counts local)
    (fun ~p ~r v ->
      let counts = Array.init p (fun i -> ((i * 2) mod 3) + 1) in
      let expected =
        Array.concat
          (List.init p (fun i ->
               Array.init counts.(i) (fun k ->
                   (float_of_int i *. 10.) +. float_of_int k)))
      in
      Testutil.check_array_close (Printf.sprintf "allgatherv P=%d rank=%d" p r)
        expected v)

let test_allgatherv_empty_blocks () =
  (* More ranks than elements: some blocks are empty. *)
  let results, _ =
    Sim.run ~machine ~nprocs:8 (fun rank ->
        let counts = [| 0; 2; 0; 1; 0; 0; 3; 0 |] in
        let base = [| 10.; 11.; 30.; 60.; 61.; 62. |] in
        let offset = [| 0; 0; 2; 2; 3; 3; 3; 6 |] in
        let local = Array.sub base offset.(rank) counts.(rank) in
        Coll.allgatherv ~counts local)
  in
  Array.iter
    (fun v ->
      Testutil.check_array_close "empty blocks" [| 10.; 11.; 30.; 60.; 61.; 62. |] v)
    results

let test_barrier_synchronizes () =
  let results, _ =
    Sim.run ~machine ~nprocs:4 (fun rank ->
        Sim.compute (float_of_int rank);
        Coll.barrier ();
        Sim.time ())
  in
  (* After the barrier every clock is at least the slowest rank's. *)
  Array.iter
    (fun t -> Alcotest.(check bool) "post-barrier clock" true (t >= 3.0))
    results

let test_bcast_cost_scales_log () =
  let time p =
    let _, r =
      Sim.run ~machine ~nprocs:p (fun _ ->
          ignore (Coll.bcast ~root:0 (Array.make 16 0.)))
    in
    r.Sim.makespan
  in
  (* binomial tree: 16 CPUs need 4 rounds where 2 CPUs need 1, so the
     cost grows like log P, not linearly *)
  Alcotest.(check bool) "log growth" true (time 16 < 4.5 *. time 2);
  Alcotest.(check bool) "far below linear" true (time 16 < 8. *. time 2)

(* qcheck: allreduce sum equals the sequential sum for random vectors
   and processor counts. *)
let allreduce_prop =
  QCheck.Test.make ~count:60 ~name:"allreduce sum == sequential sum"
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 1 8) (float_range (-100.) 100.)))
    (fun (p, vals) ->
      let arr = Array.of_list vals in
      let results, _ =
        Sim.run ~machine ~nprocs:p (fun rank ->
            let local = Array.map (fun x -> x +. float_of_int rank) arr in
            Coll.allreduce ~op:Coll.Sum local)
      in
      let expected =
        Array.map
          (fun x ->
            let s = ref 0. in
            for rk = 0 to p - 1 do
              s := !s +. x +. float_of_int rk
            done;
            !s)
          arr
      in
      Array.for_all
        (fun got ->
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) got expected)
        results)

(* --- ownership-transfer sends -------------------------------------------- *)

(* Odd counts, powers of two, and both sides of the ring/doubling
   switch of [allgatherv] (64 ranks). *)
let own_procs = [ 1; 2; 3; 5; 7; 8; 17; 65; 70 ]
let big_machine = Mpisim.Machine.fattree_default
let bits a = Array.map Int64.bits_of_float a
let width = 5

(* The combine rule of [Coll], restated for the references below. *)
let apply_op op a b =
  match op with
  | Coll.Sum -> a +. b
  | Coll.Prod -> a *. b
  | Coll.Min | Coll.Max ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if op = Coll.Min then Float.min a b
      else Float.max a b
  | Coll.Land -> if a <> 0. && b <> 0. then 1. else 0.
  | Coll.Lor -> if a <> 0. || b <> 0. then 1. else 0.

(* Recursive-doubling allreduce with every send copying and every
   left-hand combine into a fresh array: the bit-exact reference for
   [Coll.allreduce], which hands buffers over instead. *)
let reference_allreduce ~op data =
  let tag = 77 in
  let p = Sim.size () and me = Sim.rank () in
  let combined a b =
    Array.init (Array.length a) (fun i -> apply_op op a.(i) b.(i))
  in
  if p = 1 then Array.copy data
  else begin
    let pof2 = ref 1 in
    while !pof2 * 2 <= p do
      pof2 := !pof2 * 2
    done;
    let pof2 = !pof2 in
    let rem = p - pof2 in
    let acc = ref (Array.copy data) in
    let newrank =
      if me < 2 * rem then
        if me land 1 = 0 then begin
          Sim.send ~dst:(me + 1) ~tag (Sim.Floats !acc);
          -1
        end
        else begin
          acc := combined (Sim.recv_floats ~src:(me - 1) ~tag) !acc;
          me / 2
        end
      else me - rem
    in
    (if newrank >= 0 then
       let real r = if r < rem then (2 * r) + 1 else r + rem in
       let mask = ref 1 in
       while !mask < pof2 do
         let partner = real (newrank lxor !mask) in
         Sim.send ~dst:partner ~tag (Sim.Floats !acc);
         let other = Sim.recv_floats ~src:partner ~tag in
         acc :=
           if newrank land !mask <> 0 then combined other !acc
           else combined !acc other;
         mask := !mask * 2
       done);
    if me < 2 * rem then
      if me land 1 = 0 then acc := Sim.recv_floats ~src:(me + 1) ~tag
      else Sim.send ~dst:(me - 1) ~tag (Sim.Floats !acc);
    !acc
  end

(* Rank-dependent inputs whose Sum and Prod depend on the bracketing;
   Min/Max inputs include NaN (the identity a rank with no data sends). *)
let op_input op p rank =
  let rng = Random.State.make [| p; rank |] in
  Array.init width (fun i ->
      match op with
      | Coll.Land | Coll.Lor ->
          let period = if op = Coll.Land then 9 else 11 in
          if (rank + i) mod period = 0 then 1. else 0.
      | Coll.Min | Coll.Max when (rank + i) mod 4 = 0 -> Float.nan
      | Coll.Prod -> 0.5 +. Random.State.float rng 1.
      | _ -> Random.State.float rng 2e3 -. 1e3)

(* Run [collective] on every rank; each rank snapshots its result and
   then overwrites the array it got.  The snapshots must equal
   [expected] bit for bit, and no two ranks' results may be one array:
   with aliasing, one rank's overwrite would show in another's
   snapshot or result. *)
let check_owned what ~p collective expected =
  let results, _ =
    Sim.run ~machine:big_machine ~nprocs:p (fun rank ->
        let res = collective rank in
        let snap = Array.copy res in
        Array.fill res 0 (Array.length res) Float.nan;
        (snap, res))
  in
  Array.iteri
    (fun r (snap, _) ->
      Alcotest.(check (array int64))
        (Printf.sprintf "%s P=%d rank=%d" what p r)
        (bits (expected r)) (bits snap))
    results;
  Array.iteri
    (fun i (_, a) ->
      Array.iteri
        (fun j (_, b) ->
          if i < j && Array.length a > 0 && a == b then
            Alcotest.failf "%s P=%d: ranks %d and %d return one array" what
              p i j)
        results)
    results

let test_allreduce_owned () =
  List.iter
    (fun p ->
      List.iter
        (fun (op, name) ->
          let expected, _ =
            Sim.run ~machine:big_machine ~nprocs:p (fun rank ->
                reference_allreduce ~op (op_input op p rank))
          in
          check_owned ("allreduce " ^ name) ~p
            (fun rank -> Coll.allreduce ~op (op_input op p rank))
            (fun r -> expected.(r)))
        [
          (Coll.Sum, "sum");
          (Coll.Prod, "prod");
          (Coll.Min, "min");
          (Coll.Max, "max");
          (Coll.Land, "land");
          (Coll.Lor, "lor");
        ])
    own_procs

let test_reduce_bcast_owned () =
  List.iter
    (fun p ->
      (* small integers: exact under any bracketing *)
      let input rank =
        Array.init width (fun i -> float_of_int ((rank * 7) + i))
      in
      let total =
        Array.init width (fun i ->
            let s = ref 0. in
            for rk = 0 to p - 1 do
              s := !s +. (input rk).(i)
            done;
            !s)
      in
      let root = p / 2 in
      let results, _ =
        Sim.run ~machine:big_machine ~nprocs:p (fun rank ->
            Coll.reduce ~root ~op:Coll.Sum (input rank))
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "reduce P=%d" p) (bits total) (bits results.(root));
      let data = Array.init width (fun i -> Float.pi *. float_of_int (i + 1)) in
      check_owned "bcast" ~p
        (fun rank ->
          Coll.bcast ~root (if rank = root then Array.copy data else [||]))
        (fun _ -> data))
    own_procs

let test_allgatherv_owned () =
  List.iter
    (fun p ->
      let counts = Array.init p (fun i -> (i * 5) mod 4) in
      let block r =
        Array.init counts.(r) (fun k ->
            (float_of_int r *. 100.) +. float_of_int k)
      in
      let whole = Array.concat (List.init p block) in
      check_owned "allgatherv" ~p
        (fun rank -> Coll.allgatherv ~counts (block rank))
        (fun _ -> whole))
    own_procs

(* --- the hoisted combine against the element rule ---------------------- *)

let bits = Int64.bits_of_float
let same_bits x y = bits x = bits y
let ops = Coll.[ Sum; Prod; Min; Max; Land; Lor ]

(* Entries that probe the rules: NaN, both zeros, both infinities. *)
let entry_gen =
  QCheck.Gen.(
    frequency
      [ (1, oneofl [ Float.nan; 0.; -0.; infinity; neg_infinity; 1.; -1. ]); (2, float_range (-4.) 4.) ])

let combine_gen =
  QCheck.Gen.(
    let* op = oneofl ops and* len = int_range 0 12 and* off = int_range 0 3 in
    let* init = entry_gen and* acc = array_repeat len entry_gen in
    let+ src = array_repeat (off + len) entry_gen in
    (op, init, acc, src, off))

let combine_prop =
  Testutil.qtest ~count:500 "combine and fold = element-wise apply_op, bit for bit"
    (QCheck.make
       ~print:(fun (_, init, acc, src, off) ->
         Printf.sprintf "init=%h acc=[%s] src=[%s] off=%d" init
           (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") acc)))
           (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") src)))
           off)
       combine_gen)
    (fun (op, init, acc, src, off) ->
      let expect = Array.mapi (fun i x -> Coll.apply_op op x src.(off + i)) acc in
      let got = Array.copy acc in
      Coll.combine_into op got src off;
      let len = Array.length src in
      let folded = Array.fold_left (Coll.apply_op op) init src in
      Array.for_all2 same_bits got expect && same_bits (Coll.fold op init src len) folded)

(* The rules themselves, on the corner cases the property draws. *)
let test_apply_op_rules () =
  let check name want got =
    if not (same_bits want got) then Alcotest.failf "%s: want %h, got %h" name want got
  in
  check "min skips NaN" 2. (Coll.apply_op Min Float.nan 2.);
  check "max skips NaN" 2. (Coll.apply_op Max 2. Float.nan);
  check "min of zeros" (-0.) (Coll.apply_op Min 0. (-0.));
  check "max of zeros" 0. (Coll.apply_op Max (-0.) 0.);
  check "land" 0. (Coll.apply_op Land Float.nan 0.);
  check "lor" 1. (Coll.apply_op Lor 0. (-2.));
  if not (Float.is_nan (Coll.apply_op Min Float.nan Float.nan)) then
    Alcotest.fail "min of two NaNs is NaN"

(* Matching the op once leaves no boxed float per element. *)
let test_combine_allocation () =
  let acc = Array.make 1000 1. and src = Array.init 1001 float_of_int in
  List.iter
    (fun op ->
      Coll.combine_into op acc src 1;
      ignore (Coll.fold op 0. src 1001);
      let w0 = Gc.minor_words () in
      Coll.combine_into op acc src 1;
      let folded = Coll.fold op 0. src 1001 in
      let w = Gc.minor_words () -. w0 in
      (* at most the boxed result of [fold] *)
      if w > 2. then Alcotest.failf "1000-element combine and fold allocated %.0f words" w;
      ignore (Sys.opaque_identity folded))
    ops

let suite =
  [
    t "broadcast (all roots)" test_bcast;
    t "reduce sum" test_reduce_sum;
    t "allreduce arithmetic ops" test_allreduce_ops;
    t "allreduce logical ops" test_allreduce_logical;
    t "gatherv" test_gatherv;
    t "allgatherv" test_allgatherv;
    t "allgatherv with empty blocks" test_allgatherv_empty_blocks;
    t "barrier synchronizes" test_barrier_synchronizes;
    t "broadcast cost is logarithmic" test_bcast_cost_scales_log;
    QCheck_alcotest.to_alcotest allreduce_prop;
    t "allreduce hands buffers over safely" test_allreduce_owned;
    t "reduce and bcast results stay private" test_reduce_bcast_owned;
    t "allgatherv hands buffers over safely" test_allgatherv_owned;
    combine_prop;
    t "min, max, land and lor rules" test_apply_op_rules;
    t "combine and fold allocate nothing per element" test_combine_allocation;
  ]
