(** Collective operations built from point-to-point messages, so their
    cost emerges from the machine's link model.  All ranks must call
    the same collectives in the same order. *)

type op = Sum | Prod | Min | Max | Land | Lor

val apply_op : op -> float -> float -> float
(** The element rule of every reduction: [Min] and [Max] skip a NaN
    operand (NaN only when both are) and keep [Float.min]/[Float.max]'s
    signed zeros; [Land] and [Lor] yield 1. or 0. *)

val combine_into : op -> float array -> float array -> int -> unit
(** [combine_into op acc src off] sets [acc.(i)] to
    [apply_op op acc.(i) src.(off + i)] for every index of [acc],
    matching the op once.  Charges no cost. *)

val fold : op -> float -> float array -> int -> float
(** [fold op init src len] folds [apply_op op] left over
    [src.(0 .. len-1)] from [init], matching the op once.  Charges no
    cost. *)

val bcast : root:int -> float array -> float array
(** Binomial-tree broadcast; every rank returns the root's data.
    Degenerates to {!bcast_linear} when P <= 2. *)

val bcast_linear : root:int -> float array -> float array
(** Root sends to each rank directly; the ablation baseline. *)

val reduce : root:int -> op:op -> float array -> float array
(** Binomial-tree reduction; meaningful on the root only. *)

val allreduce : op:op -> float array -> float array
(** Recursive-doubling allreduce (log P rounds of pairwise exchange).
    The combination order is fixed by rank, so every rank returns a
    bit-identical array. *)

val allreduce_scalar : op:op -> float -> float
val bcast_scalar : root:int -> float -> float
val barrier : unit -> unit

val vote : bool -> bool
(** One-bit agreement (logical-or allreduce): every rank returns [true]
    iff any rank voted [true].  The checkpoint machinery's boundary
    coordinator: all ranks leave with the same verdict or none do. *)

val gatherv : root:int -> counts:int array -> float array -> float array
(** Concatenate per-rank blocks (rank order) on the root; other ranks
    return [[||]]. *)

val allgatherv : counts:int array -> float array -> float array
(** Allgather: every rank returns the full concatenation.  Ring
    exchange (P-1 neighbour rounds) up to 64 ranks; a Bruck-style
    doubling schedule (O(P log P) messages) beyond, so large-P runs
    are not quadratic in messages. *)

val exscan : op:op -> identity:float -> float -> float
(** Exclusive prefix scan of one scalar per rank (recursive doubling):
    rank r gets the op-fold of ranks 0..r-1, [identity] on rank 0. *)
