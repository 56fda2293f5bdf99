(* Discrete-event SPMD simulator built on OCaml effect handlers.

   Every simulated rank is a delimited computation.  Communication and
   time are effects:

   - [Compute t] advances the rank's virtual clock (handled inline);
   - [Send] timestamps a message using the machine's link model --
     including serialization on shared channels -- and delivers it to
     the destination mailbox (non-blocking, eager; performed by the
     scheduler in virtual-time order);
   - [Recv] pops a matching message; one whose message is already
     queued completes inline (see "receives that complete inline"),
     otherwise the rank's continuation is suspended until a sender
     delivers one.

   The scheduler resumes runnable ranks lowest-virtual-clock first and
   reports a deadlock (with a per-rank diagnosis) if every live rank is
   suspended on an empty mailbox.  Everything is deterministic: same
   program, same machine, same timings.

   When the machine carries a fault model, [deliver] additionally
   consults a seeded counter-based RNG and may drop, duplicate, or
   delay-spike a message, stall the sending rank, or degrade a link for
   a window of virtual time.  The decision stream depends only on the
   seed and the (deterministic) order of send events, so the same seed
   reproduces the identical fault schedule.  A receive may carry a
   timeout; an expired wait surfaces as a typed [Timeout] naming the
   waiting rank, the expected source and tag, instead of stalling the
   whole simulation into a [Deadlock]. *)

open Effect
open Effect.Deep

type payload = Floats of float array | Ints of int array

let payload_bytes = function
  | Floats a -> 8 * Array.length a
  | Ints a -> 8 * Array.length a

let copy_payload = function
  | Floats a -> Floats (Array.copy a)
  | Ints a -> Ints (Array.copy a)

type _ Effect.t +=
  | E_send : int * int * bool * payload -> unit Effect.t
      (* dst, tag, owned, data: an owned payload is delivered as is,
         any other is copied at delivery *)
  | E_send_acked : int * int * int * int * payload -> unit Effect.t
      (* dst, tag, ack tag, seq: like an owned E_send, but a successful
         delivery also queues a transport-level acknowledgement
         [Ints [|seq|]] back to the sender on the ack tag (the reliable
         layer's retransmission timer watches for it) *)
  | E_recv : int * int -> payload Effect.t (* src, tag *)
  | E_recv_opt : int * int * float -> payload option Effect.t
      (* src, tag, timeout: [None] once the deadline passes *)
  | E_recv_any : int -> (int * payload) Effect.t
      (* tag: wildcard-source receive -- block until a message with
         this tag arrives from ANY rank; returns (source, data).  Among
         pending candidates the earliest arrival wins, ties going to
         the lowest source rank, so the match is deterministic. *)
  | E_probe : int * int * float -> bool Effect.t
      (* src, tag, at: has a matching message already arrived (in
         virtual time) at this rank's mailbox?  Non-blocking.  [src =
         -1] is the wildcard: any source.  [at] is nan, or the
         scheduler key at which to answer (see [probe]). *)
  | E_compute : float -> unit Effect.t (* seconds *)
  | E_flops : float -> unit Effect.t (* floating-point operations *)
  | E_rank : int Effect.t
  | E_size : int Effect.t
  | E_time : float Effect.t
  | E_machine : Machine.t Effect.t
  | E_scratch : (int * int * int, int) Hashtbl.t Effect.t
      (* per-rank counter table (the reliable layer's sequence numbers) *)
  | E_note_retry : unit Effect.t

exception
  Timeout of {
    rank : int; (* who gave up waiting *)
    src : int;
    tag : int;
    waited : float; (* the timeout that expired *)
  }

exception
  Protocol_error of {
    rank : int;
    src : int;
    tag : int;
    detail : string;
  }

exception Rank_failure of { rank : int; exn : exn }

(* Failure detector verdict: [rank]'s blocked receive on [failed] was
   broken at virtual time [at] because the peer is permanently dead
   (killed at [at] minus the model's [detect] window).  Delivered into
   the waiting rank, so it surfaces wrapped in [Rank_failure]. *)
exception Peer_failed of { rank : int; failed : int; at : float }

(* The fault model permanently killed [rank] at virtual time [at].
   Raised (wrapped in [Rank_failure]) once the run drains, even when
   the survivors never tried to talk to the victim. *)
exception Rank_killed of { rank : int; at : float }

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable drops : int;
  mutable dups : int;
  mutable delayed : int;
  mutable stalls : int;
  mutable retries : int;
  mutable acks : int;
  mutable kills : int;
  mutable sched_picks : int;
}

(* [Float.max] and [Float.min] with the same NaN and signed-zero rules,
   but inlined: the stdlib calls box their arguments and results, and
   they run on every message. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

(* --- mailboxes ------------------------------------------------------------ *)

(* One (src, tag) FIFO: a ring buffer of arrival times in a float array
   beside a ring of payloads, so queueing a message allocates nothing
   once the rings have grown to the FIFO's high-water mark.  Capacities
   are powers of two; vacated payload slots are cleared so a consumed
   message is not kept alive. *)
type mbox = {
  mutable arrivals : float array;
  mutable payloads : payload array;
  mutable head : int;
  mutable len : int;
}

let no_payload = Ints [||]

let mbox_create () =
  {
    arrivals = Array.make 2 0.;
    payloads = Array.make 2 no_payload;
    head = 0;
    len = 0;
  }

(* Never pushed to: the answer of a lookup that found no FIFO. *)
let no_mbox = mbox_create ()

let mbox_grow m =
  let cap = Array.length m.payloads in
  let arrivals = Array.make (2 * cap) 0.
  and payloads = Array.make (2 * cap) no_payload in
  for i = 0 to m.len - 1 do
    let j = (m.head + i) land (cap - 1) in
    arrivals.(i) <- m.arrivals.(j);
    payloads.(i) <- m.payloads.(j)
  done;
  m.arrivals <- arrivals;
  m.payloads <- payloads;
  m.head <- 0

let[@inline] mbox_push m arrival data =
  if m.len = Array.length m.payloads then mbox_grow m;
  let j = (m.head + m.len) land (Array.length m.payloads - 1) in
  m.arrivals.(j) <- arrival;
  m.payloads.(j) <- data;
  m.len <- m.len + 1

let[@inline] head_arrival m = m.arrivals.(m.head)

let mbox_pop m =
  let j = m.head in
  let data = m.payloads.(j) in
  m.payloads.(j) <- no_payload;
  m.head <- (j + 1) land (Array.length m.payloads - 1);
  m.len <- m.len - 1;
  data

(* A float cell: an all-float record, so assigning it allocates nothing
   (a float stored in a mixed record or returned from a closure is
   boxed). *)
type fcell = { mutable v : float }

(* Mailbox keys pack (src, tag) into one int: 20 bits of source rank,
   the rest tag.  Every internal tag fits (collectives use 1001-1006,
   the runtime library 3001-3004, transport acks live at tag + 0x400000,
   and user MPI tags are bounded by 1e6 then offset by 2e6); the bound
   is validated at send/receive time. *)
let src_bits = 20
let max_tag = 1 lsl 40

let check_tag tag =
  if tag < 0 || tag >= max_tag then
    invalid_arg (Printf.sprintf "message tag %d out of range [0, 2^40)" tag)

let mbox_key ~src ~tag = (tag lsl src_bits) lor src

(* Completing a receive on a non-empty FIFO: the clock advances to the
   head's arrival (if later) plus the receive overhead, and the head is
   popped.  The scheduler and the inline path both complete receives
   here, so their arithmetic is the same by construction. *)
let[@inline] complete_recv clocks r (machine : Machine.t) m =
  clocks.(r) <-
    fmax clocks.(r) (head_arrival m) +. machine.Machine.recv_overhead;
  mbox_pop m

(* --- the fast path for non-blocking operations --------------------------- *)

(* Clock charges and identity queries do not need the scheduler: the
   rank keeps running either way.  Performing an effect for each one
   costs a continuation capture and resume -- tens of nanoseconds that
   dominate fine-grained execution (a threaded-code VM instruction is a
   few nanoseconds).  Instead the scheduler publishes the running
   rank's context here before every resume, and the non-blocking
   operations mutate it directly.  The arithmetic is exactly what the
   effect handler used to do, in the same order, so virtual time is
   bit-identical.  Sends, and receives whose message is not queued yet,
   still perform effects: they genuinely yield to the scheduler.

   Outside any simulation [current] is [None] and the operations fall
   back to performing the effect (surfacing the usual
   [Effect.Unhandled]).  [run_report] saves and restores the previous
   context, so a rank body that itself starts a nested simulation
   resumes with its own context intact. *)
type ctx = {
  x_clocks : float array;
  x_compute : float array; (* per-rank compute seconds *)
  x_stats : stats;
  x_machine : Machine.t;
  x_flop_time : float;
  x_nprocs : int;
  x_scratch : (int * int * int, int) Hashtbl.t array;
  x_place : (int array * float array) option;
      (* oversubscription: (rank -> CPU, per-CPU busy-until).  [None]
         (one rank per CPU) keeps the exact historical arithmetic. *)
  x_mailboxes : (int, mbox) Hashtbl.t array; (* the scheduler's *)
  x_inline : bool; (* receives may complete inline (see below) *)
  x_ahead : fcell;
      (* the clock at which the running rank's last inline receive
         started; nan when it has made none since the scheduler last
         resumed it *)
  mutable x_rank : int;
}

let current : ctx option ref = ref None

(* Operations available inside a simulated rank. *)
let send ~dst ~tag data = perform (E_send (dst, tag, false, data))
let send_owned ~dst ~tag data = perform (E_send (dst, tag, true, data))

let send_acked ~dst ~tag ~ack_tag ~seq data =
  perform (E_send_acked (dst, tag, ack_tag, seq, data))

(* One compute charge of [t] seconds against rank [r].  Without a
   placement this is a plain clock advance; with one, the charge also
   serializes on the rank's CPU: it starts when both the rank and the
   CPU are free, and occupies the CPU until it ends.  That is the whole
   oversubscription cost model -- messages stay per-rank.  Compute is
   accumulated per rank and summed in rank order for the report, so the
   total does not depend on the host order in which ranks ran. *)
let[@inline] charge_compute c r t =
  (match c.x_place with
  | None -> c.x_clocks.(r) <- c.x_clocks.(r) +. t
  | Some (cpu_of, cpu_free) ->
      let cpu = cpu_of.(r) in
      let fin = fmax c.x_clocks.(r) cpu_free.(cpu) +. t in
      c.x_clocks.(r) <- fin;
      cpu_free.(cpu) <- fin);
  c.x_compute.(r) <- c.x_compute.(r) +. t

let compute seconds =
  match !current with
  | Some c -> charge_compute c c.x_rank seconds
  | None -> perform (E_compute seconds)

let flops n =
  match !current with
  | Some c -> charge_compute c c.x_rank (n *. c.x_flop_time)
  | None -> perform (E_flops n)

let rank () =
  match !current with Some c -> c.x_rank | None -> perform E_rank

let size () =
  match !current with Some c -> c.x_nprocs | None -> perform E_size

let time () =
  match !current with
  | Some c -> c.x_clocks.(c.x_rank)
  | None -> perform E_time

let machine () =
  match !current with Some c -> c.x_machine | None -> perform E_machine

let reliable_on () = (machine ()).Machine.reliable

let scratch () =
  match !current with
  | Some c -> c.x_scratch.(c.x_rank)
  | None -> perform E_scratch

let note_retry () =
  match !current with
  | Some c -> c.x_stats.retries <- c.x_stats.retries + 1
  | None -> perform E_note_retry

(* --- receives that complete inline --------------------------------------- *)

(* A blocking receive whose message is already queued would suspend,
   be picked by the scheduler at the rank's own clock, pop the head of
   its FIFO and resume.  Only the receiver pops its FIFO and senders
   only push to the tail, so once a head exists the popped message and
   the resulting clock are fixed: the round trip through the scheduler
   changes nothing but host time.  Such a receive completes here
   instead, counting the one pick the scheduler would have made.

   Two things that do depend on host order rule it out: a placement
   (compute after the receive would claim the shared CPU out of virtual
   order) and a fault model (a run that aborts on a fault would show
   the host state -- checkpoint commits, counters -- of ranks that ran
   ahead of the failure).  Without a fault model no rank has a death
   time, so the kill check the scheduler makes first always passes.
   A rank that ran ahead must not read mailboxes the scheduler has not
   filled up to its key yet; [probe] is the one operation that does,
   and it waits for the scheduler in that case. *)
let ready_mbox c ~src ~tag =
  if c.x_inline && src >= 0 && src < c.x_nprocs && tag >= 0 && tag < max_tag
  then
    match Hashtbl.find c.x_mailboxes.(c.x_rank) (mbox_key ~src ~tag) with
    | m -> m
    | exception Not_found -> no_mbox
  else no_mbox

let take_inline c m =
  c.x_stats.sched_picks <- c.x_stats.sched_picks + 1;
  c.x_ahead.v <- c.x_clocks.(c.x_rank);
  complete_recv c.x_clocks c.x_rank c.x_machine m

let recv_blocking ~src ~tag =
  match !current with
  | Some c ->
      let m = ready_mbox c ~src ~tag in
      if m.len > 0 then take_inline c m else perform (E_recv (src, tag))
  | None -> perform (E_recv (src, tag))

(* A timed receive completes inline only when the queued head arrives
   by the deadline; otherwise the scheduler decides between the
   message, the failure detector and the timeout. *)
let recv_opt ~src ~tag ~timeout =
  match !current with
  | Some c ->
      let m = ready_mbox c ~src ~tag in
      if
        m.len > 0 && timeout >= 0.
        && head_arrival m <= c.x_clocks.(c.x_rank) +. timeout
      then Some (take_inline c m)
      else perform (E_recv_opt (src, tag, timeout))
  | None -> perform (E_recv_opt (src, tag, timeout))

let recv_any ~tag = perform (E_recv_any tag)

(* A probe reads the mailbox as the scheduler has filled it so far, so
   it must not run before sends the scheduler would have delivered
   first.  Without inline receives the rank was last resumed at its
   last receive, and the probe is answered at once.  A rank that has
   since completed receives inline has run ahead of the scheduler: the
   probe suspends at the key the last of those receives would have
   been picked at, and the scheduler answers it there, once every
   earlier send has landed.  That pick stands in for the receive's,
   already counted, so it is not counted again. *)
let probe ~src ~tag =
  let at = match !current with Some c -> c.x_ahead.v | None -> Float.nan in
  perform (E_probe (src, tag, at))

(* A receive that raises a typed [Timeout] at its deadline. *)
let recv_timeout ~src ~tag ~timeout =
  match recv_opt ~src ~tag ~timeout with
  | Some p -> p
  | None -> raise (Timeout { rank = rank (); src; tag; waited = timeout })

(* [recv_wait] waits forever on a perfect network, but under a fault
   model it is bounded by [min_timeout] (at least the model's [detect]
   window) so that no primitive can hang a chaos run: a wait the
   sender's bounded retries cannot satisfy surfaces as a typed
   [Timeout].  The reliable layer passes the worst-case retransmission
   window as [min_timeout] to avoid giving up while the sender is
   still lawfully retrying. *)
let recv_wait ?(min_timeout = 0.) ~src ~tag () =
  match (machine ()).Machine.faults with
  | Some f when f.Machine.detect > 0. ->
      recv_timeout ~src ~tag ~timeout:(Float.max f.Machine.detect min_timeout)
  | _ -> recv_blocking ~src ~tag

(* Under a fault model, a plain receive defaults to the model's
   [detect] timeout so that a lost message surfaces as a typed
   [Timeout] rather than an eventual whole-simulation [Deadlock]. *)
let recv ~src ~tag =
  match (machine ()).Machine.faults with
  | Some f when f.Machine.detect > 0. ->
      recv_timeout ~src ~tag ~timeout:f.Machine.detect
  | _ -> recv_blocking ~src ~tag

let recv_floats ~src ~tag =
  match recv ~src ~tag with
  | Floats a -> a
  | Ints _ ->
      raise
        (Protocol_error
           {
             rank = rank ();
             src;
             tag;
             detail = "expected a float payload, received integers";
           })

let recv_ints ~src ~tag =
  match recv ~src ~tag with
  | Ints a -> a
  | Floats _ ->
      raise
        (Protocol_error
           {
             rank = rank ();
             src;
             tag;
             detail = "expected an integer payload, received floats";
           })

(* One tenant's share of a space-shared run; filled in by the
   multi-tenant scheduler, never by [run] itself. *)
type job_stat = {
  job_name : string;
  job_first_rank : int;
  job_procs : int;
  job_start : float;
  job_finish : float;
  job_messages : int;
  job_bytes : int;
}

type report = {
  makespan : float; (* max over per-rank clocks *)
  per_rank_clock : float array;
  jobs : job_stat list; (* per-tenant accounting (scheduler only) *)
  messages : int;
  bytes : int;
  compute_time : float;
  drops : int; (* messages the fault model destroyed *)
  dups : int; (* spurious duplicates it injected *)
  delayed : int; (* delay spikes it injected *)
  stalls : int; (* rank stalls it injected *)
  retries : int; (* retransmissions by the reliable layer *)
  acks : int; (* transport acknowledgements delivered *)
  kills : int; (* ranks the fault model permanently killed *)
  sched_picks : int; (* scheduling steps the event core executed *)
}

exception Deadlock of string

type 'a suspended =
  | Not_started
  | Finished
  | Wants_send of
      int * int * (int * int) option * bool * payload * ('a, unit) blocked_k
      (* send to (dst, tag), with an optional (ack tag, seq) transport
         acknowledgement and the ownership flag: performed by the
         scheduler in global virtual-time order so that shared-channel
         contention is accounted accurately *)
  | Wants_recv of int * int * mbox * ('a, payload) blocked_k
      (* waiting on (src, tag), whose FIFO is cached *)
  | Wants_recv_t of int * int * float * mbox * ('a, payload option) blocked_k
      (* waiting on (src, tag) until the absolute deadline *)
  | Wants_recv_any of int * ('a, int * payload) blocked_k
      (* waiting on (any source, tag) *)
  | Wants_probe of int * int * float * ('a, bool) blocked_k
      (* a probe of (src, tag) to answer at the given key *)

and ('a, 'b) blocked_k = ('b, 'a suspended) continuation

(* The pick heap: a binary min-heap of (key, rank), keys and ranks in
   parallel arrays. *)
type heap = {
  mutable hk : float array;
  mutable hr : int array;
  mutable hn : int;
}

type 'a run_state = {
  machine : Machine.t;
  nprocs : int;
  clocks : float array;
  compute : float array; (* per-rank compute seconds *)
  mailboxes : (int, mbox) Hashtbl.t array;
      (* per destination rank, keyed [(tag lsl 20) lor src].  One small
         table per rank beats one big table keyed by an allocated
         (dst, src, tag) triple: the packed int key hashes in
         nanoseconds and allocates nothing on lookup. *)
  channel_free : (int, fcell) Hashtbl.t; (* contention channel -> busy-until *)
  stats : stats;
  results : 'a option array;
  scratch : (int * int * int, int) Hashtbl.t array; (* per rank *)
  mutable fault_ix : int; (* fault-decision counter (the RNG index) *)
  death : float array; (* per-rank scheduled death time; infinity = never *)
  place : (int array * float array) option;
      (* oversubscription: (rank -> CPU, per-CPU busy-until) *)
  detect : float; (* the failure detector's window; 0 = off *)
  states : 'a suspended array;
  dead : bool array;
  heap : heap;
  hkey : float array; (* the key each rank is enqueued under; nan = none *)
  key : fcell; (* the last key [step_key] computed *)
}

let mailbox st ~dst ~src ~tag =
  let t = st.mailboxes.(dst) in
  let key = mbox_key ~src ~tag in
  match Hashtbl.find t key with
  | m -> m
  | exception Not_found ->
      let m = mbox_create () in
      Hashtbl.add t key m;
      m

(* The wildcard match: scan every source's FIFO for (dst, tag) and
   return the source holding the earliest pending arrival, ties going
   to the lowest source rank; -1 when none is pending.  The ascending
   scan updating only on a strictly earlier arrival implements the
   tie-break. *)
let any_source st ~dst ~tag =
  let t = st.mailboxes.(dst) in
  let best = ref (-1) and best_at = ref 0. in
  for src = 0 to st.nprocs - 1 do
    match Hashtbl.find t (mbox_key ~src ~tag) with
    | m when m.len > 0 ->
        let arrival = head_arrival m in
        if !best < 0 || not (!best_at <= arrival) then begin
          best := src;
          best_at := arrival
        end
    | _ -> ()
    | exception Not_found -> ()
  done;
  !best

(* Physical endpoint of a virtual rank: identity without a placement. *)
let phys st r = match st.place with None -> r | Some (cpu_of, _) -> cpu_of.(r)

(* Scheduler-side mirror of [charge_compute], for the effect path. *)
let st_charge st r t =
  (match st.place with
  | None -> st.clocks.(r) <- st.clocks.(r) +. t
  | Some (cpu_of, cpu_free) ->
      let cpu = cpu_of.(r) in
      let fin = fmax st.clocks.(r) cpu_free.(cpu) +. t in
      st.clocks.(r) <- fin;
      cpu_free.(cpu) <- fin);
  st.compute.(r) <- st.compute.(r) +. t

(* --- the fault model ----------------------------------------------------- *)

(* One decision draw: a pure function of the fault seed, the decision
   kind, and a per-run counter, so the schedule is reproducible. *)
let draw st (f : Machine.faults) ~salt =
  let i = st.fault_ix in
  st.fault_ix <- i + 1;
  Rng.uniform ~seed:(f.Machine.fault_seed lxor salt) i

let salt_drop = 0x0d10
let salt_dup = 0x0d20
let salt_delay = 0x0d30
let salt_stall = 0x0d40
let salt_ack = 0x0d50
let salt_kill = 0x0d60
let salt_kill_time = 0x0d70

(* The per-rank death schedule for one run attempt: a pure function of
   (fault seed, attempt, rank), so a given attempt reproduces its kills
   exactly while a recovery retry (next [attempt]) re-rolls them --
   otherwise a deterministic replay would march straight back into the
   same crash.  The explicit [kill_rank] pin fires on attempt 0 only,
   which is what the tests use: one planted death, clean recovery. *)
let death_schedule (faults : Machine.faults option) ~nprocs ~attempt =
  let death = Array.make nprocs infinity in
  (match faults with
  | None -> ()
  | Some f ->
      if f.Machine.kill > 0. then
        for r = 0 to nprocs - 1 do
          let ix = (attempt * 8191) + r in
          if Rng.uniform ~seed:(f.Machine.fault_seed lxor salt_kill) ix < f.Machine.kill
          then
            death.(r) <-
              Rng.uniform ~seed:(f.Machine.fault_seed lxor salt_kill_time) ix
              *. f.Machine.kill_window
        done;
      if f.Machine.kill_rank >= 0 && f.Machine.kill_rank < nprocs && attempt = 0
      then death.(f.Machine.kill_rank) <- f.Machine.kill_time);
  death

(* Link degradation windows are a pure function of (seed, window index,
   src, dst) -- independent of event order, so the same virtual-time
   interval is degraded no matter how the schedule interleaves. *)
let degraded (f : Machine.faults) ~src ~dst ~now =
  f.Machine.degrade > 0.
  &&
  let window = int_of_float (now /. f.Machine.degrade_period) in
  let ix = (((window * 131) + src) * 131) + dst in
  Rng.uniform ~seed:(f.Machine.fault_seed lxor 0xdead) ix < f.Machine.degrade


(* Transfer timing: a message leaves when both the sender and (for a
   shared medium) the channel are free; it arrives one latency plus one
   serialization time later.  Fault injection happens here: the send
   cost is always paid, but the network may destroy, duplicate, or
   delay what was sent.  The payload is copied unless the sender handed
   over its ownership ([send_owned]); a duplicate is always a copy. *)
let deliver st ~src ~dst ~tag ~owned ?ack data =
  let data = if owned then data else copy_payload data in
  let faults = st.machine.Machine.faults in
  (* rank stall: the sender loses time before the message even leaves *)
  (match faults with
  | Some f when f.Machine.stall > 0. && draw st f ~salt:salt_stall < f.Machine.stall
    ->
      st.clocks.(src) <- st.clocks.(src) +. f.Machine.stall_time;
      st.stats.stalls <- st.stats.stalls + 1
  | _ -> ());
  (* the network sees physical endpoints: two ranks sharing a CPU talk
     over that machine's local link, not a remote one *)
  let psrc = phys st src and pdst = phys st dst in
  let link = st.machine.Machine.link psrc pdst in
  (* a degraded window scales latency up and bandwidth down; scaling
     by exactly 1 otherwise keeps the arithmetic bit-identical *)
  let degrade =
    match faults with
    | Some f when degraded f ~src:psrc ~dst:pdst ~now:st.clocks.(src) ->
        f.Machine.degrade_factor
    | _ -> 1.
  in
  let latency = link.Machine.latency *. degrade in
  let bandwidth = link.Machine.bandwidth /. degrade in
  let latency =
    match faults with
    | Some f when f.Machine.delay > 0. && draw st f ~salt:salt_delay < f.Machine.delay
      ->
        st.stats.delayed <- st.stats.delayed + 1;
        latency *. f.Machine.delay_factor
    | _ -> latency
  in
  let bytes = payload_bytes data in
  let ser = float_of_int bytes /. bandwidth in
  let start =
    match link.Machine.channel with
    | None -> st.clocks.(src)
    | Some ch ->
        let busy =
          match Hashtbl.find st.channel_free ch with
          | c -> c
          | exception Not_found ->
              let c = { v = 0. } in
              Hashtbl.add st.channel_free ch c;
              c
        in
        let start = fmax st.clocks.(src) busy.v in
        busy.v <- start +. ser;
        start
  in
  let arrival = start +. latency +. ser in
  st.clocks.(src) <- st.clocks.(src) +. st.machine.Machine.send_overhead;
  st.stats.messages <- st.stats.messages + 1;
  st.stats.bytes <- st.stats.bytes + bytes;
  let dropped =
    match faults with
    | Some f when f.Machine.drop > 0. -> draw st f ~salt:salt_drop < f.Machine.drop
    | _ -> false
  in
  if dropped then st.stats.drops <- st.stats.drops + 1
  else begin
    let m = mailbox st ~dst ~src ~tag in
    mbox_push m arrival data;
    match faults with
    | Some f when f.Machine.dup > 0. && draw st f ~salt:salt_dup < f.Machine.dup
      ->
        st.stats.dups <- st.stats.dups + 1;
        mbox_push m (arrival +. latency) (copy_payload data)
    | _ -> ()
  end;
  (* Transport-level acknowledgement: models the NIC acking on arrival,
     so it does not depend on the receiving rank's control flow (which
     is what keeps the reliable layer deadlock-free).  The ack crosses
     the reverse link and is itself subject to loss. *)
  match ack with
  | None -> ()
  | Some (ack_tag, seq) ->
      (* A dead destination's NIC cannot acknowledge: suppressing the
         ack is what makes the sender's reliable layer notice the
         failure (retries, then [Exhausted]). *)
      if (not dropped) && arrival < st.death.(dst) then begin
        let back = st.machine.Machine.link pdst psrc in
        let ack_arrival =
          arrival +. back.Machine.latency +. (8. /. back.Machine.bandwidth)
        in
        st.stats.messages <- st.stats.messages + 1;
        st.stats.bytes <- st.stats.bytes + 8;
        let ack_dropped =
          match faults with
          | Some f when f.Machine.drop > 0. ->
              draw st f ~salt:salt_ack < f.Machine.drop
          | _ -> false
        in
        if ack_dropped then st.stats.drops <- st.stats.drops + 1
        else begin
          st.stats.acks <- st.stats.acks + 1;
          mbox_push
            (mailbox st ~dst:src ~src:dst ~tag:ack_tag)
            ack_arrival
            (Ints [| seq |])
        end
      end

(* Whether a message from [src] (-1: any source) on [tag] has arrived
   at rank [r] by its clock. *)
let probe_now st r ~src ~tag =
  let m =
    if src = -1 then
      let s = any_source st ~dst:r ~tag in
      if s < 0 then no_mbox else mailbox st ~dst:r ~src:s ~tag
    else mailbox st ~dst:r ~src ~tag
  in
  m.len > 0 && head_arrival m <= st.clocks.(r)

(* Run one rank until it finishes or blocks on an empty mailbox.  Any
   exception escaping the rank body is wrapped with the rank's identity
   so the failure is attributable. *)
let handler st my_rank (body : int -> 'a) : 'a suspended =
  match_with
    (fun () ->
      let v = body my_rank in
      st.results.(my_rank) <- Some v)
    ()
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> raise (Rank_failure { rank = my_rank; exn = e }));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | E_compute t ->
              Some
                (fun (k : (b, _) continuation) ->
                  st_charge st my_rank t;
                  continue k ())
          | E_flops n ->
              Some
                (fun k ->
                  st_charge st my_rank (n *. st.machine.Machine.flop_time);
                  continue k ())
          | E_rank -> Some (fun k -> continue k my_rank)
          | E_size -> Some (fun k -> continue k st.nprocs)
          | E_time -> Some (fun k -> continue k st.clocks.(my_rank))
          | E_machine -> Some (fun k -> continue k st.machine)
          | E_scratch -> Some (fun k -> continue k st.scratch.(my_rank))
          | E_note_retry ->
              Some
                (fun k ->
                  st.stats.retries <- st.stats.retries + 1;
                  continue k ())
          | E_send (dst, tag, owned, data) ->
              Some
                (fun k ->
                  if dst < 0 || dst >= st.nprocs then
                    invalid_arg "send: bad destination rank";
                  check_tag tag;
                  Wants_send (dst, tag, None, owned, data, k))
          | E_send_acked (dst, tag, ack_tag, seq, data) ->
              Some
                (fun k ->
                  if dst < 0 || dst >= st.nprocs then
                    invalid_arg "send: bad destination rank";
                  check_tag tag;
                  check_tag ack_tag;
                  Wants_send (dst, tag, Some (ack_tag, seq), true, data, k))
          | E_recv (src, tag) ->
              Some
                (fun k ->
                  if src < 0 || src >= st.nprocs then
                    invalid_arg "recv: bad source rank";
                  check_tag tag;
                  Wants_recv (src, tag, mailbox st ~dst:my_rank ~src ~tag, k))
          | E_recv_opt (src, tag, timeout) ->
              Some
                (fun k ->
                  if src < 0 || src >= st.nprocs then
                    invalid_arg "recv: bad source rank";
                  check_tag tag;
                  if timeout < 0. then invalid_arg "recv: negative timeout";
                  Wants_recv_t
                    ( src,
                      tag,
                      st.clocks.(my_rank) +. timeout,
                      mailbox st ~dst:my_rank ~src ~tag,
                      k ))
          | E_recv_any tag ->
              Some
                (fun k ->
                  check_tag tag;
                  Wants_recv_any (tag, k))
          | E_probe (src, tag, at) ->
              Some
                (fun k ->
                  if src < -1 || src >= st.nprocs then
                    invalid_arg "probe: bad source rank";
                  if Float.is_nan at then
                    continue k (probe_now st my_rank ~src ~tag)
                  else Wants_probe (src, tag, at, k))
          | _ -> None);
    }

(* --- the scheduler -------------------------------------------------------- *)

(* Cooperative scheduling in virtual-time order: of all ranks that can
   make progress (initial start, pending send, or a blocked receive
   whose message has arrived), always resume the one with the smallest
   virtual clock.  This keeps shared-channel reservations consistent
   with simulated time.  A receive blocked with a deadline is always
   eventually runnable: it sorts by its deadline, so it fires only once
   no other rank could still produce an earlier event -- which is what
   makes timing out safe.

   The key functions below write their result to [st.key] rather than
   returning it: a float returned from a function that is not inlined
   is boxed, and they run several times per pick. *)

(* The failure detector: a receive blocked on a peer scheduled to die
   becomes runnable at (death + detect) -- the heartbeat deadline --
   and, if no message showed up by then, is broken with a typed
   [Peer_failed].  Sends the peer issued before dying carry strictly
   smaller scheduler keys, so they are always delivered first: the
   detector never falsely condemns a slow-but-alive sender.  [nan] when
   no detector watches [src]. *)
let[@inline] detector_key st src =
  if st.detect > 0. && st.death.(src) < infinity then
    st.death.(src) +. st.detect
  else Float.nan

(* The virtual time at which rank [r] can next step; nan = cannot. *)
let base_key st r =
  st.key.v <-
    (match st.states.(r) with
    | Not_started | Wants_send _ -> st.clocks.(r)
    | Wants_probe (_, _, at, _) -> at
    | Finished -> Float.nan
    | Wants_recv (src, _, m, _) ->
        if m.len = 0 then detector_key st src else st.clocks.(r)
    | Wants_recv_any (tag, _) ->
        (* no single peer to watch for death: a wildcard wait with no
           pending message simply stays blocked (total silence ends
           the run as a [Deadlock] with this wait in the diagnostic) *)
        if any_source st ~dst:r ~tag < 0 then Float.nan else st.clocks.(r)
    | Wants_recv_t (src, _, deadline, m, _) ->
        if m.len > 0 && head_arrival m <= deadline then st.clocks.(r)
        else
          let d = detector_key st src in
          if Float.is_nan d then deadline else fmin deadline d)

(* A doomed rank's death is itself a schedulable event: once the rank
   has no step strictly before its death time, the kill fires. *)
let[@inline] dies_now st r key =
  st.death.(r) < infinity
  && (not st.dead.(r))
  && (Float.is_nan key || key >= st.death.(r))

let step_key st r =
  if st.dead.(r) then st.key.v <- Float.nan
  else begin
    base_key st r;
    if dies_now st r st.key.v then st.key.v <- st.death.(r)
  end

(* O(log P) pick: a binary min-heap of (step_key, rank) ordered
   lexicographically, so the pop order -- smallest key, ties to the
   lowest rank -- reproduces a linear scan bit-for-bit.  Entries go
   stale lazily: [hkey.(r)] remembers the key rank [r] is currently
   enqueued under (nan = none); a popped entry is discarded unless it
   matches, then re-validated against a freshly computed [step_key]
   before it wins.  A rank's key only changes when the rank itself
   steps or when a message lands in its mailbox, which is exactly where
   [wake] is called; should a wake ever be missed, an empty heap
   triggers one full rebuild before declaring deadlock, so the failure
   mode is lost time, never a wrong schedule or a spurious deadlock.
   Both sifts move a hole instead of swapping. *)
let[@inline] hless (ka : float) (ra : int) (kb : float) (rb : int) =
  ka < kb || (ka = kb && ra < rb)

let heap_grow h =
  let cap = 2 * Array.length h.hk in
  let nk = Array.make cap 0. and nr = Array.make cap 0 in
  Array.blit h.hk 0 nk 0 h.hn;
  Array.blit h.hr 0 nr 0 h.hn;
  h.hk <- nk;
  h.hr <- nr

let[@inline] heap_push h key r =
  if h.hn = Array.length h.hk then heap_grow h;
  let k = h.hk and rr = h.hr in
  let i = ref h.hn and sifting = ref true in
  h.hn <- h.hn + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if hless key r k.(p) rr.(p) then begin
      k.(!i) <- k.(p);
      rr.(!i) <- rr.(p);
      i := p
    end
    else sifting := false
  done;
  k.(!i) <- key;
  rr.(!i) <- r

let heap_pop_root h =
  let n = h.hn - 1 in
  h.hn <- n;
  if n > 0 then begin
    let k = h.hk and rr = h.hr in
    let key = k.(n) and r = rr.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c =
          if l + 1 < n && hless k.(l + 1) rr.(l + 1) k.(l) rr.(l) then l + 1
          else l
        in
        if hless k.(c) rr.(c) key r then begin
          k.(!i) <- k.(c);
          rr.(!i) <- rr.(c);
          i := c
        end
        else sifting := false
      end
    done;
    k.(!i) <- key;
    rr.(!i) <- r
  end

(* Re-enqueue [r] if its key changed since it was last enqueued.
   Pushed keys are never nan, so the float [<>] below is nan-safe: nan
   (not enqueued) compares unequal to any fresh key. *)
let wake st r =
  step_key st r;
  let key = st.key.v in
  if (not (Float.is_nan key)) && key <> st.hkey.(r) then begin
    st.hkey.(r) <- key;
    heap_push st.heap key r
  end

(* The next rank to step, or -1 when none can. *)
let rec pick st =
  let h = st.heap in
  if h.hn = 0 then begin
    (* safety net: rebuild from scratch before giving up *)
    Array.fill st.hkey 0 st.nprocs Float.nan;
    let any = ref false in
    for r = 0 to st.nprocs - 1 do
      step_key st r;
      let key = st.key.v in
      if not (Float.is_nan key) then begin
        st.hkey.(r) <- key;
        heap_push h key r;
        any := true
      end
    done;
    if !any then pick st else -1
  end
  else begin
    let key = h.hk.(0) and r = h.hr.(0) in
    heap_pop_root h;
    if key <> st.hkey.(r) then pick st (* stale entry *)
    else begin
      st.hkey.(r) <- Float.nan;
      step_key st r;
      let fresh = st.key.v in
      if Float.is_nan fresh then pick st
      else if fresh <> key then begin
        st.hkey.(r) <- fresh;
        heap_push h fresh r;
        pick st
      end
      else r
    end
  end

let deadlock_diagnosis st =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun rr s ->
      if st.dead.(rr) then
        Buffer.add_string buf
          (Printf.sprintf "  rank %d died at t=%.6f\n" rr st.death.(rr))
      else
        match s with
        | Wants_recv (src, tag, _, _) ->
            Buffer.add_string buf
              (Printf.sprintf "  rank %d waits for (src=%d, tag=%d)%s\n" rr src
                 tag
                 (if st.dead.(src) then " [source is dead]" else ""))
        | Wants_recv_any (tag, _) ->
            Buffer.add_string buf
              (Printf.sprintf "  rank %d waits for (src=any, tag=%d)\n" rr tag)
        | Wants_send (dst, tag, _, _, _, _) ->
            Buffer.add_string buf
              (Printf.sprintf "  rank %d pending send to (dst=%d, tag=%d)\n" rr
                 dst tag)
        | Wants_recv_t _ | Wants_probe _ | Finished | Not_started -> ())
    st.states;
  Buffer.contents buf

(* One scheduler step of rank [r]: start it, or perform the operation it
   is suspended on, and run it until it next suspends or finishes. *)
let step st r body =
  match st.states.(r) with
  | Not_started -> handler st r body
  | Wants_send (dst, tag, ack, owned, data, k) ->
      deliver st ~src:r ~dst ~tag ~owned ?ack data;
      (* the delivery may have unblocked the destination; [r] itself is
         re-enqueued after the step *)
      if dst <> r then wake st dst;
      continue k ()
  | Wants_recv (src, _, m, k) ->
      if m.len = 0 then begin
        (* the failure detector fired for this wait *)
        let at = st.death.(src) +. st.detect in
        st.clocks.(r) <- fmax st.clocks.(r) at;
        discontinue k (Peer_failed { rank = r; failed = src; at })
      end
      else continue k (complete_recv st.clocks r st.machine m)
  | Wants_recv_any (tag, k) ->
      let src = any_source st ~dst:r ~tag in
      (* the scheduler only resumes a wildcard wait once a message is
         pending *)
      assert (src >= 0);
      let m = mailbox st ~dst:r ~src ~tag in
      continue k (src, complete_recv st.clocks r st.machine m)
  | Wants_recv_t (src, _, deadline, m, k) ->
      if m.len > 0 && head_arrival m <= deadline then
        continue k (Some (complete_recv st.clocks r st.machine m))
      else
        let d = detector_key st src in
        if (not (Float.is_nan d)) && d < deadline then begin
          let at = d in
          st.clocks.(r) <- fmax st.clocks.(r) at;
          discontinue k (Peer_failed { rank = r; failed = src; at })
        end
        else begin
          st.clocks.(r) <- deadline;
          continue k None
        end
  | Wants_probe (src, tag, _, k) ->
      st.stats.sched_picks <- st.stats.sched_picks - 1;
      continue k (probe_now st r ~src ~tag)
  | Finished -> assert false

(* [run_report ?attempt ~machine ~nprocs body] simulates [nprocs] SPMD
   ranks each executing [body rank]; returns the run's outcome (results
   or the failing exception) together with the timing/fault report --
   failures keep their report, which is what the recovery driver and
   otterc's fault counters need.  [attempt] re-salts the permanent-kill
   schedule so each recovery retry sees fresh deaths. *)
let run_report ?(attempt = 0) ~machine ~nprocs (body : int -> 'a) :
    ('a array, exn) result * report =
  if nprocs < 1 then
    invalid_arg
      (Printf.sprintf "run: need at least one rank, got -p %d" nprocs);
  if nprocs >= 1 lsl src_bits then
    invalid_arg
      (Printf.sprintf "run: at most %d ranks are supported, got -p %d"
         ((1 lsl src_bits) - 1)
         nprocs);
  let place =
    match machine.Machine.placement with
    | None ->
        if nprocs > machine.Machine.max_procs then
          invalid_arg
            (Printf.sprintf
               "run: %s has at most %d processors; to oversubscribe, map the \
                %d ranks onto its CPUs with --cpus C --map POLICY (or \
                Machine.with_placement)"
               machine.Machine.name machine.Machine.max_procs nprocs);
        None
    | Some { Machine.cpus; map } ->
        if cpus < 1 then
          invalid_arg
            (Printf.sprintf "run: need at least one CPU, got --cpus %d" cpus);
        if cpus > machine.Machine.max_procs then
          invalid_arg
            (Printf.sprintf "run: %s has at most %d processors, got --cpus %d"
               machine.Machine.name machine.Machine.max_procs cpus);
        if cpus > nprocs then
          invalid_arg
            (Printf.sprintf
               "run: more CPUs (--cpus %d) than ranks (-p %d); lower --cpus \
                or raise -p"
               cpus nprocs);
        let cpu_of =
          Array.init nprocs (fun r ->
              match map with
              | Machine.Map_block -> r * cpus / nprocs
              | Machine.Map_cyclic -> r mod cpus
              | Machine.Map_random seed ->
                  min (cpus - 1)
                    (int_of_float
                       (Rng.uniform ~seed:(seed lxor 0x6d61) r
                       *. float_of_int cpus)))
        in
        Some (cpu_of, Array.make cpus 0.)
  in
  let st =
    {
      machine;
      nprocs;
      clocks = Array.make nprocs 0.;
      compute = Array.make nprocs 0.;
      mailboxes = Array.init nprocs (fun _ -> Hashtbl.create 8);
      channel_free = Hashtbl.create 8;
      stats =
        {
          messages = 0;
          bytes = 0;
          drops = 0;
          dups = 0;
          delayed = 0;
          stalls = 0;
          retries = 0;
          acks = 0;
          kills = 0;
          sched_picks = 0;
        };
      results = Array.make nprocs None;
      scratch = Array.init nprocs (fun _ -> Hashtbl.create 16);
      fault_ix = 0;
      death = death_schedule machine.Machine.faults ~nprocs ~attempt;
      place;
      detect =
        (match machine.Machine.faults with
        | Some f when f.Machine.detect > 0. -> f.Machine.detect
        | _ -> 0.);
      states = Array.make nprocs Not_started;
      dead = Array.make nprocs false;
      heap =
        {
          hk = Array.make (max 16 nprocs) 0.;
          hr = Array.make (max 16 nprocs) 0;
          hn = 0;
        };
      hkey = Array.make nprocs Float.nan;
      key = { v = Float.nan };
    }
  in
  (* Publish the fast-path context for the whole run, restoring the
     enclosing one (if any) on the way out so nested simulations
     compose. *)
  let xctx =
    {
      x_clocks = st.clocks;
      x_compute = st.compute;
      x_stats = st.stats;
      x_machine = machine;
      x_flop_time = machine.Machine.flop_time;
      x_nprocs = nprocs;
      x_scratch = st.scratch;
      x_place = place;
      x_mailboxes = st.mailboxes;
      x_inline = Option.is_none place && Option.is_none machine.Machine.faults;
      x_ahead = { v = Float.nan };
      x_rank = 0;
    }
  in
  let prev_ctx = !current in
  current := Some xctx;
  Fun.protect ~finally:(fun () -> current := prev_ctx) @@ fun () ->
  let finished = ref 0 in
  for r = 0 to nprocs - 1 do
    wake st r
  done;
  let outcome =
    try
      while !finished < nprocs do
        let r = pick st in
        st.stats.sched_picks <- st.stats.sched_picks + 1;
        if r < 0 then raise (Deadlock (deadlock_diagnosis st));
        base_key st r;
        if dies_now st r st.key.v then begin
          (* The kill event: the rank stops forever.  Its continuation
             is dropped, its messages already in flight still arrive,
             and nothing it would have sent after this instant ever
             will.  Survivors learn of it from silence: missing acks
             (retries, then [Exhausted]) or the failure detector. *)
          st.dead.(r) <- true;
          st.clocks.(r) <- fmax st.clocks.(r) st.death.(r);
          st.stats.kills <- st.stats.kills + 1;
          st.states.(r) <- Finished;
          incr finished
        end
        else begin
          xctx.x_rank <- r;
          xctx.x_ahead.v <- Float.nan;
          let next = step st r body in
          st.states.(r) <- next;
          (match next with Finished -> incr finished | _ -> ());
          wake st r
        end
      done;
      (* Even a kill nobody was waiting on (a rank the others never
         talk to, or P=1) must fail the run: its result is gone. *)
      Array.iteri
        (fun r d ->
          if d then
            raise
              (Rank_failure
                 { rank = r; exn = Rank_killed { rank = r; at = st.death.(r) } }))
        st.dead;
      Ok
        (Array.init nprocs (fun r ->
             match st.results.(r) with
             | Some v -> v
             | None -> failwith "rank finished without result"))
    with e -> Error e
  in
  let report =
    {
      makespan = Array.fold_left Float.max 0. st.clocks;
      per_rank_clock = Array.copy st.clocks;
      jobs = [];
      messages = st.stats.messages;
      bytes = st.stats.bytes;
      compute_time = Array.fold_left ( +. ) 0. st.compute;
      drops = st.stats.drops;
      dups = st.stats.dups;
      delayed = st.stats.delayed;
      stalls = st.stats.stalls;
      retries = st.stats.retries;
      acks = st.stats.acks;
      kills = st.stats.kills;
      sched_picks = st.stats.sched_picks;
    }
  in
  (outcome, report)

(* [run ~machine ~nprocs body] simulates [nprocs] SPMD ranks each
   executing [body rank]; returns their results and the timing report.
   Failures (rank crash, deadlock, permanent kill) raise. *)
let run ?attempt ~machine ~nprocs (body : int -> 'a) : 'a array * report =
  match run_report ?attempt ~machine ~nprocs body with
  | Ok results, report -> (results, report)
  | Error e, _ -> raise e
