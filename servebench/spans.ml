(* Benchmark-side spans for the traced run: name, start, end, parent and
   request id, kept in flat in-memory arrays until the run ends. The
   program itself carries no tracing for this; every span wraps a call into
   one of its public functions. With [enabled = false] a span is just the
   call, which is how the traced run measures its own overhead. Spans are
   recorded only while [recording] is on (after the warm-up). *)

type t = {
  enabled : bool;
  mutable recording : bool;  (** [enabled] and past the warm-up. *)
  mutable names : string array;  (** Span name per span; a layer is its prefix. *)
  mutable start : int array;  (** Monotonic ns. *)
  mutable stop : int array;
  mutable parent : int array;  (** Index of the enclosing span, or [-1]. *)
  mutable req : int array;  (** Request id the span belongs to. *)
  mutable len : int;
  mutable current : int;  (** The open span new spans nest under. *)
  mutable request : int;
}

let create ~enabled =
  let n = if enabled then 1 lsl 16 else 1 in
  {
    enabled;
    recording = false;
    names = Array.make n "";
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n (-1);
    req = Array.make n 0;
    len = 0;
    current = -1;
    request = 0;
  }

let now () = Int64.to_int (Disclosure.Mclock.now_ns ())

let grow t =
  let n = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0

let push t name ~start ~stop =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- t.current;
  t.req.(i) <- t.request;
  t.len <- i + 1;
  i

let set_request t id = t.request <- id
let set_recording t on = t.recording <- on && t.enabled

(* Run [f] inside a span named [name]. *)
let span t name f =
  if not t.recording then f ()
  else begin
    let i = push t name ~start:(now ()) ~stop:0 in
    let saved = t.current in
    t.current <- i;
    let finish () =
      t.stop.(i) <- now ();
      t.current <- saved
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span already finished [seconds] ago-to-now, reported after the fact
   by a callback (the service's stage observations). *)
let completed t name ~seconds =
  if t.recording then begin
    let stop = now () in
    ignore (push t name ~start:(stop - int_of_float (seconds *. 1e9)) ~stop)
  end

(* Each span's duration minus the part its children cover. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

(* Self time and count per span name, in ns. *)
let self_ns t =
  let self = self_times t in
  let totals = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let prev = Option.value (Hashtbl.find_opt totals t.names.(i)) ~default:(0, 0) in
    Hashtbl.replace totals t.names.(i) (fst prev + self.(i), snd prev + 1)
  done;
  totals

(* Summed self time per request id in [0, n), in ns, over the spans whose
   name [keep] accepts. *)
let self_by_request t ~n ~keep =
  let self = self_times t in
  let sums = Array.make n 0 in
  for i = 0 to t.len - 1 do
    let r = t.req.(i) in
    if r >= 0 && r < n && keep t.names.(i) then sums.(r) <- sums.(r) + self.(i)
  done;
  sums
