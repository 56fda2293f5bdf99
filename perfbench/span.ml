(* Host-time spans recorded by the benchmark's own code around each call
   it makes into a layer.  Spans stay in memory and are written out when
   the run ends.  A span's self time is its duration minus the time its
   children cover; runs are single-threaded, so children nest and never
   overlap, and the self times of every span under the roots add up to
   the roots' total duration. *)

type span = {
  name : string;
  parent : span option;
  start : float;
  mutable stop : float;
  words0 : float;
  mutable words : float; (* words allocated inside the span *)
  mutable child_s : float;
  mutable child_words : float;
}

type t = { on : bool; mutable spans : span list; mutable stack : span list }

let off = { on = false; spans = []; stack = [] }
let create () = { on = true; spans = []; stack = [] }

(* Words allocated so far.  [Gc.minor_words] is exact; direct major
   allocations reach the counters only at GC slices, so this is exact
   only right after {!sync}. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Flush the GC's allocation counters so {!alloc_words} is exact. *)
let sync () =
  Gc.minor ();
  ignore (Gc.major_slice 0)

let now = Unix.gettimeofday

let with_span t name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> Some p | [] -> None in
    let words0 = alloc_words () in
    let sp =
      { name; parent; start = now (); stop = 0.; words0; words = 0.; child_s = 0.; child_words = 0. }
    in
    t.stack <- sp :: t.stack;
    t.spans <- sp :: t.spans;
    Fun.protect
      ~finally:(fun () ->
        sp.stop <- now ();
        sp.words <- alloc_words () -. sp.words0;
        t.stack <- List.tl t.stack;
        match parent with
        | Some p ->
            p.child_s <- p.child_s +. (sp.stop -. sp.start);
            p.child_words <- p.child_words +. sp.words
        | None -> ())
      f
  end

let duration sp = sp.stop -. sp.start
let self_s sp = duration sp -. sp.child_s
let self_words sp = sp.words -. sp.child_words

(* Spans in the order they started. *)
let spans t = List.rev t.spans

let roots t = List.filter (fun sp -> sp.parent = None) (spans t)

(* Per-name totals of self time, self words and call count. *)
let totals t : (string, float * float * int) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let s, w, n = Option.value (Hashtbl.find_opt h sp.name) ~default:(0., 0., 0) in
      Hashtbl.replace h sp.name (s +. self_s sp, w +. self_words sp, n + 1))
    (spans t);
  h

(* Chrome trace-event JSON (viewable in Perfetto): one complete event
   per span, with its self time and allocation in [args]. *)
let to_chrome t : Json.t =
  let t0 = match spans t with sp :: _ -> sp.start | [] -> 0. in
  let us x = Json.Num (Float.round (x *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun sp ->
               Json.Obj
                 [
                   ("name", Json.Str sp.name);
                   ("ph", Json.Str "X");
                   ("ts", us (sp.start -. t0));
                   ("dur", us (duration sp));
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj [ ("self_us", us (self_s sp)); ("words", Json.Num (self_words sp)) ] );
                 ])
             (spans t)) );
    ]
