(** The SPMD executor: runs the compiler's IR on the machine simulator —
    the moral equivalent of running the emitted C linked against the MPI
    run-time library on the modeled hardware.

    Each rank decodes the per-rank IR program once into flat arrays of
    instruction closures with resolved jump targets, array-indexed
    variable slots (no environment hashing), closure-tree scalar
    expressions, and element loops that run RPN programs over an
    unboxed float stack and preallocated operand buffers, then runs
    that threaded code.  The result types, failure
    classes and checkpoint format live in {!State}. *)

exception Runtime_error of string
(** Any execution failure: undefined variables, bounds, conformability,
    user [error(...)] calls. *)

type value = State.value =
  | Vscalar of float
  | Vmat of Runtime.Dmat.t
  | Vnd of Runtime.Ndarr.t
  | Vstr of string

type captured = State.captured =
  | Cscalar of float
  | Cmat of int * int * float array
  | Cnd of int array * float array
(** A variable's final value, gathered dense (row-major). *)

type outcome = State.outcome = {
  output : string; (** what rank 0 printed *)
  captures : (string * captured) list;
  lib_calls : int;
      (** run-time library calls rank 0 executed (the per-pass ablation
          in bench/ prices optimizations with this) *)
  report : Mpisim.Sim.report;
}

type failure_kind = State.failure_kind =
  | Ftimeout  (** a receive deadline expired *)
  | Fprotocol  (** malformed traffic: a bug, not the network *)
  | Fkilled  (** the fault model permanently killed a rank *)
  | Fpeer  (** the failure detector condemned a dead peer *)
  | Fexhausted  (** a sender ran out of retransmissions *)
  | Fdeadlock  (** every live rank blocked *)
  | Fruntime  (** an error in the program itself *)

val classify_failure : exn -> failure_kind
(** Coarsen an exception (typically the payload of
    {!Mpisim.Sim.Rank_failure}) to its failure class. *)

val recoverable : failure_kind -> bool
(** Whether rollback-and-replay can cure this class of failure:
    network-induced classes ([Ftimeout], [Fkilled], [Fpeer],
    [Fexhausted]) are; program bugs and protocol violations are not. *)

type run_result = State.run_result =
  | Complete of outcome
  | Partial of {
      failed_rank : int;
      operation : string;
      detail : string;
      kind : failure_kind;
      report : Mpisim.Sim.report;
          (** fault counters accumulated up to the abort *)
    }
      (** The simulation aborted: [failed_rank] failed while executing
          [operation] (e.g. ["matrix multiply"]); [detail] is the
          one-line cause — a run-time error, a receive {!Mpisim.Sim.Timeout}
          under a fault model, a permanent rank kill, or an exhausted
          retransmission budget. *)

type recovery = State.recovery = {
  r_result : run_result;  (** the final attempt's result *)
  r_attempts : int;  (** run attempts made (1 = no recovery needed) *)
  r_gave_up : bool;  (** a recoverable failure outlived the budget *)
  r_reports : Mpisim.Sim.report list;  (** one per attempt, oldest first *)
  r_penalty : float;  (** simulated backoff seconds charged before retries *)
}

val listing : Spmd.Ir.prog -> string
(** Decode the program (flat mode, plus every user function) and return
    a human-readable listing of the emitted ops — one line per decoded
    op, with resolved pc addresses.  Executes nothing; used by the
    golden decode tests. *)

val run_result :
  ?capture:string list ->
  ?seed:int ->
  ?datadir:string ->
  machine:Mpisim.Machine.t ->
  nprocs:int ->
  Spmd.Ir.prog ->
  run_result
(** Run the program on [nprocs] simulated processors of [machine];
    [capture] names script variables whose final values are returned
    for verification.  Degrades gracefully: a failure on any rank
    yields [Partial] instead of an unattributed exception. *)

val run :
  ?capture:string list ->
  ?seed:int ->
  ?datadir:string ->
  machine:Mpisim.Machine.t ->
  nprocs:int ->
  Spmd.Ir.prog ->
  outcome
(** Like {!run_result} but raises {!Runtime_error} with the failure
    detail instead of returning [Partial]. *)

val run_recovering :
  ?capture:string list ->
  ?seed:int ->
  ?datadir:string ->
  ?ckpt_interval:float ->
  ?max_recoveries:int ->
  machine:Mpisim.Machine.t ->
  nprocs:int ->
  Spmd.Ir.prog ->
  recovery
(** {!run_result} wrapped in coordinated checkpoint/rollback: snapshots
    of every rank's state (locals, distributed blocks, RNG sequence
    numbers, program counter, output prefix) are committed by
    collective vote at top-level boundaries roughly every
    [ckpt_interval] simulated seconds (0 = never: a failure replays
    from program start).  On a {!recoverable} failure all ranks roll
    back to the newest snapshot common to every rank and replay
    deterministically — a recovered run is bit-identical to an
    undisturbed one — with exponential simulated backoff, at most
    [max_recoveries] times (default 0 = no retries).  Each retry
    re-rolls the fault model's kill schedule.  Never hangs: every
    attempt either completes, or fails with a typed class within
    bounded virtual time. *)
