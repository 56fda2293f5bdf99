(* Machine-simulator tests: timing model, scheduling, contention,
   determinism, deadlock detection. *)

module Sim = Mpisim.Sim
module Machine = Mpisim.Machine

let t name f = Alcotest.test_case name `Quick f

(* A dedicated-link test machine with easy numbers: 1 us latency,
   1 MB/s bandwidth, no overheads, 1 Gflop/s. *)
let lab ?(channel = None) () =
  {
    Machine.name = "lab";
    max_procs = 64;
    flop_time = 1e-9;
    interp_overhead = 0.;
    send_overhead = 0.;
    recv_overhead = 0.;
    link = (fun _ _ -> { Machine.latency = 1e-6; bandwidth = 1e6; channel });
    faults = None;
    reliable = false;
    placement = None;
  }

let test_compute_advances_clock () =
  let _, r =
    Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> Sim.compute 0.25)
  in
  Testutil.check_close "makespan" 0.25 r.Sim.makespan

let test_flops_use_machine_rate () =
  let _, r = Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> Sim.flops 1e6) in
  Testutil.check_close "1e6 flops at 1ns" 1e-3 r.Sim.makespan

let test_message_timing () =
  (* 1000 doubles = 8000 bytes at 1 MB/s = 8 ms, plus 1 us latency. *)
  let _, r =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        else ignore (Sim.recv ~src:0 ~tag:1))
  in
  Testutil.check_close "latency + serialization" (8e-3 +. 1e-6) r.Sim.makespan;
  Alcotest.(check int) "bytes counted" 8000 r.Sim.bytes;
  Alcotest.(check int) "one message" 1 r.Sim.messages

let test_receiver_waits_for_arrival () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.compute 1.0;
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 42. |]);
          0.
        end
        else begin
          ignore (Sim.recv ~src:0 ~tag:1);
          Sim.time ()
        end)
  in
  Alcotest.(check bool) "receiver clock past sender's send time" true
    (results.(1) >= 1.0)

let test_sender_does_not_block () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats (Array.make 100000 0.));
          Sim.time ()
        end
        else begin
          Sim.compute 10.;
          ignore (Sim.recv ~src:0 ~tag:1);
          0.
        end)
  in
  Alcotest.(check bool) "eager send returns immediately" true
    (results.(0) < 1e-3)

let test_fifo_order_per_pair () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |]);
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 2. |]);
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 3. |]);
          []
        end
        else
          List.map
            (fun _ ->
              match Sim.recv ~src:0 ~tag:1 with
              | Sim.Floats [| x |] -> x
              | _ -> nan)
            [ (); (); () ])
  in
  Alcotest.(check (list (float 0.))) "in order" [ 1.; 2.; 3. ] results.(1)

(* Mailbox FIFOs are ring buffers.  Rounds go out in pairs on three
   tags in turn, and each pair is received second round first, so
   FIFOs drain, refill, wrap around and grow from a wrapped head while
   others hold messages: order and payloads must survive. *)
let test_fifo_ring_wrap () =
  let rounds = [| 1; 1; 1; 1; 3; 2; 1; 5; 2; 1 |] in
  let tag i = 1 + (i mod 3) in
  let value i j = float_of_int ((10 * i) + j) in
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Array.iteri
            (fun i n ->
              for j = 1 to n do
                Sim.send ~dst:1 ~tag:(tag i) (Sim.Floats [| value i j |])
              done;
              if i mod 2 = 1 then ignore (Sim.recv ~src:1 ~tag:9))
            rounds;
          []
        end
        else begin
          let got = ref [] in
          let take i =
            for _ = 1 to rounds.(i) do
              match Sim.recv ~src:0 ~tag:(tag i) with
              | Sim.Floats [| x |] -> got := x :: !got
              | _ -> got := nan :: !got
            done
          in
          for pair = 0 to (Array.length rounds / 2) - 1 do
            take ((2 * pair) + 1);
            take (2 * pair);
            Sim.send ~dst:0 ~tag:9 (Sim.Ints [| pair |])
          done;
          List.rev !got
        end)
  in
  let round i = List.init rounds.(i) (fun j -> value i (j + 1)) in
  let expected =
    List.concat
      (List.init
         (Array.length rounds / 2)
         (fun pair -> round ((2 * pair) + 1) @ round (2 * pair)))
  in
  Alcotest.(check (list (float 0.))) "in order" expected results.(1)

let test_tags_demultiplex () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:7 (Sim.Floats [| 7. |]);
          Sim.send ~dst:1 ~tag:5 (Sim.Floats [| 5. |]);
          0.
        end
        else begin
          (* receive in the opposite order of sending *)
          let a = Sim.recv_floats ~src:0 ~tag:5 in
          let b = Sim.recv_floats ~src:0 ~tag:7 in
          (a.(0) *. 10.) +. b.(0)
        end)
  in
  Testutil.check_close "tag matching" 57. results.(1)

let test_payload_copied_on_send () =
  (* Mutating the buffer after send must not affect the receiver. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          let buf = [| 1.; 2. |] in
          Sim.send ~dst:1 ~tag:1 (Sim.Floats buf);
          buf.(0) <- 99.;
          0.
        end
        else (Sim.recv_floats ~src:0 ~tag:1).(0))
  in
  Testutil.check_close "copy semantics" 1. results.(1)

let test_shared_channel_serializes () =
  (* Two simultaneous 8 KB transfers on one shared channel take twice
     as long as on dedicated links. *)
  let payload () = Sim.Floats (Array.make 1000 0.) in
  let body rank =
    if rank = 0 || rank = 1 then
      Sim.send ~dst:(rank + 2) ~tag:1 (payload ())
    else ignore (Sim.recv ~src:(rank - 2) ~tag:1)
  in
  let _, shared = Sim.run ~machine:(lab ~channel:(Some 0) ()) ~nprocs:4 body in
  let _, dedicated = Sim.run ~machine:(lab ()) ~nprocs:4 body in
  Testutil.check_close ~tol:1e-6 "dedicated overlap" (8e-3 +. 1e-6)
    dedicated.Sim.makespan;
  Alcotest.(check bool) "shared serializes" true
    (shared.Sim.makespan > 1.9 *. dedicated.Sim.makespan)

let test_contention_respects_virtual_time () =
  (* A rank that sends late must not be charged for an early rank's
     channel reservation made in wall-clock scheduling order. *)
  let _, r =
    Sim.run ~machine:(lab ~channel:(Some 0) ()) ~nprocs:4 (fun rank ->
        match rank with
        | 0 -> Sim.send ~dst:2 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        | 1 ->
            (* long compute first: its send happens at t=1s, when the
               channel has long been idle again *)
            Sim.compute 1.0;
            Sim.send ~dst:3 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        | 2 -> ignore (Sim.recv ~src:0 ~tag:1)
        | _ -> ignore (Sim.recv ~src:1 ~tag:1))
  in
  (* makespan = 1s + one transfer, NOT 1s + queued-behind-everything *)
  Testutil.check_close ~tol:1e-3 "no false queueing" (1.0 +. 8e-3) r.Sim.makespan

let test_determinism () =
  let body rank =
    let v = Mpisim.Coll.allreduce_scalar ~op:Mpisim.Coll.Sum (float_of_int rank) in
    Sim.flops (100. *. v);
    v
  in
  let _, r1 = Sim.run ~machine:Machine.sparc20_cluster ~nprocs:16 body in
  let _, r2 = Sim.run ~machine:Machine.sparc20_cluster ~nprocs:16 body in
  Testutil.check_close "same makespan" r1.Sim.makespan r2.Sim.makespan;
  Alcotest.(check int) "same messages" r1.Sim.messages r2.Sim.messages

let test_deadlock_detection () =
  (match
     Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
         ignore (Sim.recv ~src:(1 - rank) ~tag:9))
   with
  | exception Sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "cross recv must deadlock");
  match
    Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> ignore (Sim.recv ~src:0 ~tag:1))
  with
  | exception Sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "self recv with no message must deadlock"

let test_bad_ranks_rejected () =
  (match
     Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
         if rank = 0 then Sim.send ~dst:5 ~tag:1 (Sim.Floats [| 1. |]))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad destination must be rejected");
  match Sim.run ~machine:Machine.enterprise_smp ~nprocs:12 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too many processors must be rejected"

let test_rank_exception_propagates () =
  (* A failure on any rank aborts the whole simulation, wrapped with
     the failing rank's identity (the VM relies on this attribution). *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:4 (fun rank ->
        if rank = 2 then failwith "injected fault";
        Sim.compute 1.)
  with
  | exception Sim.Rank_failure { rank; exn = Failure msg } ->
      Alcotest.(check int) "failing rank named" 2 rank;
      Alcotest.(check string) "message" "injected fault" msg
  | _ -> Alcotest.fail "exception must propagate out of run"

let test_exception_after_communication () =
  (* Fault after messages are in flight: still propagates cleanly. *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |]);
          Sim.compute 1.
        end
        else begin
          ignore (Sim.recv ~src:0 ~tag:1);
          failwith "late fault"
        end)
  with
  | exception Sim.Rank_failure { rank; exn = Failure msg } ->
      Alcotest.(check int) "failing rank named" 1 rank;
      Alcotest.(check string) "message" "late fault" msg
  | _ -> Alcotest.fail "late exception must propagate"

(* --- wildcard-source receive -------------------------------------------- *)

let test_recv_any_earliest_arrival () =
  (* Three workers finish at staggered times; the wildcard receive must
     deliver in arrival order, not rank order. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:4 (fun rank ->
        if rank = 0 then
          List.init 3 (fun _ -> Sim.recv_any ~tag:7)
          |> List.map (fun (src, p) ->
                 match p with
                 | Sim.Floats [| v |] -> (src, v)
                 | _ -> Alcotest.fail "unexpected payload")
        else begin
          (* rank 3 finishes first, then 2, then 1 *)
          Sim.compute (float_of_int (4 - rank) *. 0.1);
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int (10 * rank) |]);
          []
        end)
  in
  Alcotest.(check (list (pair int (float 0.))))
    "arrival order, value matches source"
    [ (3, 30.); (2, 20.); (1, 10.) ]
    results.(0)

let test_recv_any_tie_lowest_source () =
  (* Both workers send at t=0 over identical links: the tie must go to
     the lowest source rank, deterministically. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:3 (fun rank ->
        if rank = 0 then begin
          let first = fst (Sim.recv_any ~tag:7) in
          let second = fst (Sim.recv_any ~tag:7) in
          (first, second)
        end
        else begin
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| 1. |]);
          (-1, -1)
        end)
  in
  Alcotest.(check (pair int int)) "lowest source wins the tie" (1, 2)
    results.(0)

let test_probe_any_source () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:3 (fun rank ->
        if rank = 0 then begin
          let before = Sim.probe ~src:(-1) ~tag:7 in
          ignore (Sim.recv ~src:2 ~tag:9); (* wait until the send landed *)
          let after = Sim.probe ~src:(-1) ~tag:7 in
          ignore (Sim.recv_any ~tag:7);
          let drained = Sim.probe ~src:(-1) ~tag:7 in
          (before, after, drained)
        end
        else if rank = 1 then begin
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| 5. |]);
          (false, false, false)
        end
        else begin
          Sim.compute 0.5;
          Sim.send ~dst:0 ~tag:9 (Sim.Floats [| 0. |]);
          (false, false, false)
        end)
  in
  Alcotest.(check (triple bool bool bool))
    "probe any: empty, pending, drained" (false, true, false) results.(0)

let test_recv_any_deadlock_diagnostic () =
  (* A wildcard wait nobody satisfies must end the run as a deadlock
     whose diagnostic names the wildcard. *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then ignore (Sim.recv_any ~tag:9))
  with
  | exception Sim.Deadlock msg ->
      Alcotest.(check bool) "diagnostic names the wildcard wait" true
        (Testutil.contains msg "rank 0 waits for (src=any, tag=9)")
  | _ -> Alcotest.fail "unsatisfied wildcard recv must deadlock"

let test_reliable_recv_any () =
  (* The wildcard composes with the reliable (ack/retry) transport:
     sequence numbers are tracked per discovered source. *)
  let machine = Machine.with_faults ~reliable:true (lab ()) in
  let results, _ =
    Sim.run ~machine ~nprocs:3 (fun rank ->
        if rank = 0 then
          List.init 4 (fun _ ->
              match Mpisim.Reliable.recv_any ~tag:7 with
              | src, Sim.Floats [| v |] -> (src, v)
              | _ -> Alcotest.fail "unexpected payload")
          |> List.fold_left (fun acc (src, v) -> acc +. (v *. 1.) +. float_of_int src) 0.
        else begin
          Mpisim.Reliable.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int rank |]);
          Mpisim.Reliable.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int (10 * rank) |]);
          0.
        end)
  in
  (* 1 + 10 + 2 + 20 payload, 1 + 1 + 2 + 2 source ranks *)
  Testutil.check_close "all four messages, sources attributed" 39. results.(0)

(* --- timeouts and failure attribution ---------------------------------- *)

let contains = Testutil.contains

let test_deadlock_names_parties () =
  (* The diagnosis must say which rank waits for which (src, tag). *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        ignore (Sim.recv ~src:(1 - rank) ~tag:9))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " in diagnosis") true
            (contains msg needle))
        [ "rank 0 waits for (src=1, tag=9)"; "rank 1 waits for (src=0, tag=9)" ]
  | _ -> Alcotest.fail "cross recv must deadlock"

let test_recv_timeout_expires () =
  (* No sender: the timed receive must come back [None] at exactly the
     deadline, with the rank's clock advanced to it. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then (Sim.compute 1.; 0.)
        else begin
          match Sim.recv_opt ~src:0 ~tag:1 ~timeout:0.25 with
          | None -> Sim.time ()
          | Some _ -> -1.
        end)
  in
  Testutil.check_close "clock at deadline" 0.25 results.(1)

let test_recv_timeout_typed_exception () =
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.compute 1.
        else ignore (Sim.recv_timeout ~src:0 ~tag:3 ~timeout:0.5))
  with
  | exception Sim.Rank_failure
      { rank = 1; exn = Sim.Timeout { rank = 1; src = 0; tag = 3; waited } }
    ->
      Testutil.check_close "waited" 0.5 waited
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "recv_timeout must raise Timeout"

let test_recv_within_timeout_delivers () =
  (* The message arrives before the deadline: normal delivery. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.compute 0.1;
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 7. |]);
          0.
        end
        else
          match Sim.recv_opt ~src:0 ~tag:1 ~timeout:5.0 with
          | Some (Sim.Floats [| x |]) -> x
          | _ -> -1.)
  in
  Testutil.check_close "delivered" 7. results.(1)

let test_protocol_error_on_wrong_kind () =
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:1 (Sim.Ints [| 1 |])
        else ignore (Sim.recv_floats ~src:0 ~tag:1))
  with
  | exception Sim.Rank_failure
      { exn = Sim.Protocol_error { rank = 1; src = 0; tag = 1; _ }; _ } ->
      ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "float receive of an int payload must be typed"

let test_machine_lookup () =
  let is name m =
    match Machine.by_name name with
    | Some found -> found == m
    | None -> false
  in
  Alcotest.(check bool) "meiko" true (is "meiko" Machine.meiko_cs2);
  Alcotest.(check bool) "smp" true (is "smp" Machine.enterprise_smp);
  Alcotest.(check bool) "cluster" true (is "cluster" Machine.sparc20_cluster);
  Alcotest.(check bool) "beowulf" true (is "beowulf" Machine.beowulf);
  Alcotest.(check bool) "unknown" true (Machine.by_name "cray" = None)

let test_cluster_topology () =
  (* intra-node links are fast, inter-node links go over the Ethernet *)
  let m = Machine.sparc20_cluster in
  let intra = m.Machine.link 0 3 and inter = m.Machine.link 3 4 in
  Alcotest.(check bool) "intra faster" true
    (intra.Machine.latency < inter.Machine.latency /. 10.);
  Alcotest.(check bool) "ethernet shared" true
    (inter.Machine.channel <> None
    && inter.Machine.channel = (m.Machine.link 8 0).Machine.channel);
  Alcotest.(check bool) "ethernet is not a node bus" true
    (List.for_all
       (fun node_pair ->
         (m.Machine.link node_pair (node_pair + 1)).Machine.channel
         <> inter.Machine.channel)
       [ 0; 4; 8; 12 ]);
  Alcotest.(check bool) "node buses distinct" true
    ((m.Machine.link 0 1).Machine.channel <> (m.Machine.link 4 5).Machine.channel)

(* --- virtual-rank placement and the fat-tree model --------------------- *)

(* A ring exchange whose per-rank results capture finish times. *)
let ring_spmd nprocs rank =
  let next = (rank + 1) mod nprocs and prev = (rank + nprocs - 1) mod nprocs in
  Sim.compute 1e-4;
  Sim.send ~dst:next ~tag:7 (Sim.Floats (Array.make 64 (float_of_int rank)));
  ignore (Sim.recv ~src:prev ~tag:7);
  Sim.time ()

(* Several ring rounds with rank- and round-dependent compute between
   the messages.  At P = 8 a compute total summed in the host order of
   the charges differs in its last bit between the run with inline
   receives and the run without. *)
let ring_rounds_spmd nprocs rank =
  let next = (rank + 1) mod nprocs and prev = (rank + nprocs - 1) mod nprocs in
  for round = 1 to 6 do
    Sim.compute (1e-4 *. (1. +. (float_of_int ((rank * round) mod 7) /. 3.)));
    Sim.send ~dst:next ~tag:7 (Sim.Floats (Array.make (8 * round) 0.1));
    ignore (Sim.recv ~src:prev ~tag:7);
    Sim.compute (1e-5 /. float_of_int (rank + 1))
  done;
  Sim.time ()

let bits = Int64.bits_of_float

(* One CPU per rank under Map_block is the identity mapping, so the run
   must be bit-identical to the same machine without a placement.  The
   placement also turns off inline receive completion, so this compares
   the inline path against the scheduler round trip: clocks, compute,
   bytes and picks must all agree exactly. *)
let check_placement_identity ~nprocs what body =
  let m = lab () in
  let mp = Machine.with_placement ~cpus:nprocs ~map:Machine.Map_block m in
  let r1, rep1 = Sim.run ~machine:m ~nprocs body in
  let r2, rep2 = Sim.run ~machine:mp ~nprocs body in
  let name s = what ^ ": " ^ s in
  Alcotest.(check (array int64))
    (name "per-rank results identical") (Array.map bits r1) (Array.map bits r2);
  Alcotest.(check (array int64))
    (name "per-rank clocks identical")
    (Array.map bits rep1.Sim.per_rank_clock)
    (Array.map bits rep2.Sim.per_rank_clock);
  Alcotest.(check int64) (name "makespan identical") (bits rep1.Sim.makespan)
    (bits rep2.Sim.makespan);
  Alcotest.(check int64) (name "compute_time identical")
    (bits rep1.Sim.compute_time) (bits rep2.Sim.compute_time);
  Alcotest.(check int) (name "messages identical") rep1.Sim.messages
    rep2.Sim.messages;
  Alcotest.(check int) (name "bytes identical") rep1.Sim.bytes rep2.Sim.bytes;
  Alcotest.(check int) (name "picks identical") rep1.Sim.sched_picks
    rep2.Sim.sched_picks

let test_placement_identity () =
  check_placement_identity ~nprocs:8 "ring" (ring_spmd 8);
  check_placement_identity ~nprocs:8 "ring rounds" (ring_rounds_spmd 8);
  check_placement_identity ~nprocs:16 "ring rounds" (ring_rounds_spmd 16)

let test_placement_serializes_compute () =
  (* 8 ranks on 1 CPU: the compute phases cannot overlap, so the
     makespan is at least 8x the single-rank compute *)
  let work = 1e-3 in
  let run cpus =
    let m = Machine.with_placement ~cpus ~map:Machine.Map_block (lab ()) in
    let _, r = Sim.run ~machine:m ~nprocs:8 (fun _ -> Sim.compute work) in
    r.Sim.makespan
  in
  Alcotest.(check bool) "1 CPU serializes" true (run 1 >= 8. *. work -. 1e-12);
  Alcotest.(check bool) "8 CPUs overlap" true (run 8 < 2. *. work)

let test_placement_random_deterministic () =
  let time seed =
    let m =
      Machine.with_placement ~cpus:4 ~map:(Machine.Map_random seed) (lab ())
    in
    let _, r = Sim.run ~machine:m ~nprocs:16 (ring_spmd 16) in
    r.Sim.makespan
  in
  Alcotest.(check (float 0.)) "same seed, same schedule" (time 11) (time 11)

let test_mapping_of_string () =
  Alcotest.(check bool) "block" true
    (Machine.mapping_of_string "block" = Some Machine.Map_block);
  Alcotest.(check bool) "cyclic" true
    (Machine.mapping_of_string "cyclic" = Some Machine.Map_cyclic);
  Alcotest.(check bool) "random seeded" true
    (Machine.mapping_of_string ~seed:9 "random" = Some (Machine.Map_random 9));
  Alcotest.(check bool) "unknown" true
    (Machine.mapping_of_string "spiral" = None)

let test_oversubscribe_needs_placement () =
  (* more ranks than CPUs without a placement: the diagnostic points at
     --cpus/--map rather than failing with a bare bounds error *)
  match Sim.run ~machine:(lab ()) ~nprocs:65 (fun _ -> ()) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions --cpus" true
        (Testutil.contains msg "--cpus")
  | _ -> Alcotest.fail "65 ranks on a 64-CPU machine should be rejected"

let test_fattree_topology () =
  (* radix 2, 3 levels: 8 leaves; 0<->1 share a leaf switch, 0<->7 cross
     the root, so the far link is strictly slower and uses a different
     contention channel *)
  let m = Machine.fattree ~radix:2 ~levels:3 () in
  let near = m.Machine.link 0 1 and far = m.Machine.link 0 7 in
  Alcotest.(check bool) "far latency higher" true
    (far.Machine.latency > near.Machine.latency);
  Alcotest.(check bool) "near channel exists" true
    (near.Machine.channel <> None);
  Alcotest.(check bool) "channels differ" true
    (near.Machine.channel <> far.Machine.channel);
  Alcotest.(check bool) "self link local" true
    ((m.Machine.link 3 3).Machine.latency <= near.Machine.latency)

let test_fattree_large_p_smoke () =
  (* the heap scheduler sustains a 1024-rank ring on the default tree *)
  let m = Machine.fattree_default in
  let _, r = Sim.run ~machine:m ~nprocs:1024 (ring_spmd 1024) in
  Alcotest.(check int) "all messages delivered" 1024 r.Sim.messages;
  Alcotest.(check bool) "scheduler picks counted" true (r.Sim.sched_picks > 0)

let test_fattree_bad_shape () =
  (match Machine.fattree ~radix:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "radix 1 should be rejected");
  match Machine.fattree ~levels:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 levels should be rejected"

(* --- receives that complete inline ---------------------------------------- *)

let test_inline_kill_fires () =
  (* The victim's next receive already has its message queued, but the
     victim's clock is past its planted death: the kill fires at the
     death time instead of the receive completing.  Inline receives
     are off under any fault model, so this goes through the
     scheduler: it checks that a queued message does not let the
     receive complete past the death, which it would if the inline
     path were taken. *)
  let f =
    {
      Machine.no_faults with
      Machine.kill_rank = 1;
      kill_time = 1.0;
      detect = 0.;
    }
  in
  let m = Machine.with_faults ~faults:f (lab ()) in
  let received = ref false in
  let outcome, rep =
    Sim.run_report ~machine:m ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |])
        else begin
          Sim.compute 2.0;
          ignore (Sim.recv ~src:0 ~tag:1);
          received := true
        end)
  in
  (match outcome with
  | Error
      (Sim.Rank_failure { rank = 1; exn = Sim.Rank_killed { rank = 1; at } })
    ->
      Alcotest.(check (float 0.)) "killed at the planted time" 1.0 at
  | Error e -> Alcotest.failf "unexpected failure %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the planted kill must fail the run");
  Alcotest.(check bool) "queued message never received" false !received;
  Alcotest.(check int) "one kill" 1 rep.Sim.kills;
  Alcotest.(check (float 0.)) "victim's clock stays at its compute" 2.0
    rep.Sim.per_rank_clock.(1)

(* Rank 0 queues a large message on tag 1, then a small one on tag 2;
   rank 1 takes the small one first, so the large one is queued when
   the timed receive starts -- but arrives after its deadline. *)
let late_head_spmd rank =
  if rank = 0 then begin
    Sim.send ~dst:1 ~tag:1 (Sim.Floats (Array.make 8000 1.));
    Sim.send ~dst:1 ~tag:2 (Sim.Floats [| 2. |]);
    0.
  end
  else begin
    ignore (Sim.recv ~src:0 ~tag:2);
    let before = Sim.time () in
    let timed_out = Sim.recv_opt ~src:0 ~tag:1 ~timeout:0.01 = None in
    let after = Sim.time () in
    if not timed_out then -1.
    else if after <> before +. 0.01 then -2.
    else begin
      ignore (Sim.recv ~src:0 ~tag:1);
      Sim.time ()
    end
  end

let test_inline_timed_recv_late_head () =
  let results, _ = Sim.run ~machine:(lab ()) ~nprocs:2 late_head_spmd in
  Alcotest.(check bool) "timed out at exactly the deadline" true
    (results.(1) > 0.);
  (* 64000 bytes at 1 MB/s plus 1 us latency *)
  Testutil.check_close "then received at its arrival" (0.064 +. 1e-6)
    results.(1);
  check_placement_identity ~nprocs:2 "late head" late_head_spmd

(* Three senders' messages are all queued before the wildcard receives
   start; arrival order (by size) is the reverse of rank order.  A plain
   receive that completes inline comes first. *)
let wildcard_spmd rank =
  if rank = 0 then begin
    Sim.compute 1.0;
    ignore (Sim.recv ~src:1 ~tag:5);
    let order = ref 0. in
    for _ = 1 to 3 do
      let src, _ = Sim.recv_any ~tag:9 in
      order := (!order *. 10.) +. float_of_int src
    done;
    !order
  end
  else begin
    if rank = 1 then Sim.send ~dst:0 ~tag:5 (Sim.Floats [| 0. |]);
    Sim.send ~dst:0 ~tag:9 (Sim.Floats (Array.make (1000 * (4 - rank)) 0.));
    0.
  end

let test_inline_wildcard_earliest () =
  let results, _ = Sim.run ~machine:(lab ()) ~nprocs:4 wildcard_spmd in
  Alcotest.(check (float 0.)) "earliest arrival first" 321. results.(0);
  check_placement_identity ~nprocs:4 "wildcard" wildcard_spmd

(* A probe after receives that completed inline.  Rank 2's second
   receive has its message queued, so it completes inline and rank 2
   runs ahead to the probe at 5.5 ms -- before the scheduler has
   delivered rank 1's message, sent at 1 ms.  Through the scheduler
   round trip that send lands first, so the probe must see it.
   [probe_src] is 1 or the wildcard -1; rank 2 also reports whether a
   second probe (answered at once) still agrees, and its clock. *)
let probe_after_inline_spmd probe_src rank =
  match rank with
  | 0 ->
      Sim.send ~dst:2 ~tag:1 (Sim.Floats [| 1. |]);
      Sim.send ~dst:2 ~tag:1 (Sim.Floats [| 2. |]);
      0.
  | 1 ->
      Sim.compute 1e-3;
      Sim.send ~dst:2 ~tag:2 (Sim.Floats [| 3. |]);
      0.
  | _ ->
      Sim.compute 5e-4;
      ignore (Sim.recv ~src:0 ~tag:1);
      Sim.compute 5e-3;
      ignore (Sim.recv ~src:0 ~tag:1);
      let first = Sim.probe ~src:probe_src ~tag:2 in
      let again = Sim.probe ~src:probe_src ~tag:2 in
      ignore (Sim.recv ~src:1 ~tag:2);
      (if first then 10. else 0.) +. if again then 1. else 0.

let test_inline_then_probe () =
  List.iter
    (fun probe_src ->
      let results, _ =
        Sim.run ~machine:(lab ()) ~nprocs:3 (probe_after_inline_spmd probe_src)
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "probe src=%d sees the 1 ms send" probe_src)
        11. results.(2);
      check_placement_identity ~nprocs:3
        (Printf.sprintf "probe src=%d" probe_src)
        (probe_after_inline_spmd probe_src))
    [ 1; -1 ]

(* A probe with nothing received inline is still answered at once: the
   1 ms send has not been delivered when rank 1 probes at 5 ms, on
   either path. *)
let probe_without_inline_spmd rank =
  if rank = 0 then begin
    Sim.compute 1e-3;
    Sim.send ~dst:1 ~tag:2 (Sim.Floats [| 3. |]);
    0.
  end
  else begin
    Sim.compute 5e-3;
    let seen = Sim.probe ~src:0 ~tag:2 in
    ignore (Sim.recv ~src:0 ~tag:2);
    if seen then 1. else 0.
  end

let test_probe_without_inline () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 probe_without_inline_spmd
  in
  Alcotest.(check (float 0.)) "answered before the send lands" 0. results.(1);
  check_placement_identity ~nprocs:2 "probe, no inline receive"
    probe_without_inline_spmd

(* [link] runs once per simulated message: a cached lookup must not
   allocate. *)
let test_link_does_not_allocate () =
  List.iter
    (fun (name, (m : Machine.t), n) ->
      let call i =
        let dst = ((i * 7) + 3) mod n in
        ignore (Sys.opaque_identity (m.Machine.link (i mod n) dst))
      in
      for i = 0 to 9_999 do
        call i
      done;
      let w0 = Gc.minor_words () in
      for i = 0 to 9_999 do
        call i
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.))
        (name ^ ": minor words over 10k calls")
        0. words)
    [
      ("meiko", Machine.meiko_cs2, 16);
      ("sparc20 cluster", Machine.sparc20_cluster, 16);
      ("fat-tree", Machine.fattree_default, 1024);
    ]

let suite =
  [
    t "compute advances the clock" test_compute_advances_clock;
    t "flops use the machine rate" test_flops_use_machine_rate;
    t "message timing" test_message_timing;
    t "receiver waits for arrival" test_receiver_waits_for_arrival;
    t "sends are eager" test_sender_does_not_block;
    t "FIFO per (src, tag)" test_fifo_order_per_pair;
    t "FIFO order across wrap-around and growth" test_fifo_ring_wrap;
    t "tags demultiplex" test_tags_demultiplex;
    t "payloads are copied" test_payload_copied_on_send;
    t "shared channel serializes" test_shared_channel_serializes;
    t "contention follows virtual time" test_contention_respects_virtual_time;
    t "determinism" test_determinism;
    t "deadlock detection" test_deadlock_detection;
    t "bad ranks rejected" test_bad_ranks_rejected;
    t "rank exception propagates" test_rank_exception_propagates;
    t "exception after communication" test_exception_after_communication;
    t "deadlock diagnosis names parties" test_deadlock_names_parties;
    t "recv_any delivers in arrival order" test_recv_any_earliest_arrival;
    t "recv_any tie goes to lowest source" test_recv_any_tie_lowest_source;
    t "probe with any-source wildcard" test_probe_any_source;
    t "unsatisfied recv_any deadlocks with diagnosis"
      test_recv_any_deadlock_diagnostic;
    t "recv_any over the reliable transport" test_reliable_recv_any;
    t "recv timeout expires" test_recv_timeout_expires;
    t "recv timeout raises typed" test_recv_timeout_typed_exception;
    t "recv within timeout delivers" test_recv_within_timeout_delivers;
    t "protocol error is typed" test_protocol_error_on_wrong_kind;
    t "machine lookup" test_machine_lookup;
    t "cluster topology" test_cluster_topology;
    t "placement: identity mapping is bit-identical" test_placement_identity;
    t "placement: one CPU serializes compute"
      test_placement_serializes_compute;
    t "placement: random map is seed-deterministic"
      test_placement_random_deterministic;
    t "placement: mapping names parse" test_mapping_of_string;
    t "oversubscription needs a placement" test_oversubscribe_needs_placement;
    t "fat-tree: near/far latency and channels" test_fattree_topology;
    t "fat-tree: 1024-rank ring smoke" test_fattree_large_p_smoke;
    t "fat-tree: bad shapes rejected" test_fattree_bad_shape;
    t "inline recv: off under faults, a planted kill fires"
      test_inline_kill_fires;
    t "inline recv: a late head still times out"
      test_inline_timed_recv_late_head;
    t "inline recv: wildcard takes the earliest arrival"
      test_inline_wildcard_earliest;
    t "inline recv: a later probe sees earlier sends" test_inline_then_probe;
    t "inline recv: a probe with none is answered at once"
      test_probe_without_inline;
    t "machine links do not allocate" test_link_does_not_allocate;
  ]
