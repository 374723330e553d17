(* The mutex guards the queue and the flags only and is never held while a
   round runs, so a submit never blocks behind a checkpoint. *)

type 'a t = {
  capacity : int;
  drain : int;
  queue : 'a Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
      (* Broadcast at the end of every round, on start and on finish: the
         only moments a waiter's situation can change. *)
  mutable claimed : bool;
  mutable round : ('a list -> unit) option; (* the round body; None until started *)
  mutable closed : bool;
  metrics : Metrics.t;
}

let create ~capacity ~drain ~metrics =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  if drain < 1 then invalid_arg "Mailbox.create: drain must be >= 1";
  {
    capacity;
    drain;
    queue = Queue.create ();
    mutex = Mutex.create ();
    cond = Condition.create ();
    claimed = false;
    round = None;
    closed = false;
    metrics;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Called and returns with the mutex held; [run] is the round body. *)
let run_round t run =
  t.claimed <- true;
  let rec take n acc =
    if n >= t.drain then acc
    else match Queue.take_opt t.queue with Some x -> take (n + 1) (x :: acc) | None -> acc
  in
  let batch = List.rev (take 0 []) in
  Mutex.unlock t.mutex;
  Metrics.incr t.metrics Metrics.Combine_rounds;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.mutex;
      t.claimed <- false;
      Condition.broadcast t.cond)
    (fun () -> run batch)

(* The one rule behind every path that can run a round: a started,
   unclaimed shard with queued messages. [None] while another caller holds
   the claim, before start, or on an empty queue. *)
let runnable t =
  match t.round with
  | Some run when (not t.claimed) && not (Queue.is_empty t.queue) -> Some run
  | _ -> None

(* Enqueue, running a round first when the queue is full and the shard is
   runnable. [on_full] decides the rest: shed ([false]) or wait and retry. *)
let enqueue t x ~on_full =
  with_lock t (fun () ->
      let rec go () =
        if t.closed then false
        else if Queue.length t.queue < t.capacity then begin
          Queue.push x t.queue;
          true
        end
        else
          match runnable t with
          | Some run ->
            run_round t run;
            go ()
          | None -> on_full go
      in
      go ())

let try_push t x = enqueue t x ~on_full:(fun _ -> false)

let push t x =
  enqueue t x ~on_full:(fun retry ->
      Condition.wait t.cond t.mutex;
      retry ())

let start t run =
  with_lock t (fun () ->
      if t.round <> None then invalid_arg "Mailbox.start: already started";
      t.round <- Some run;
      Condition.broadcast t.cond)

(* Run rounds on the caller until [ready ()]. When no round can run,
   [block ()] decides: wait for the current round to end (or for start),
   or return. *)
let drive t ~ready ~block =
  let rec go () =
    if not (ready ()) then
      match runnable t with
      | Some run ->
        run_round t run;
        go ()
      | None ->
        if block () then begin
          Condition.wait t.cond t.mutex;
          go ()
        end
  in
  go ()

let await t ready =
  if not (ready ()) then
    with_lock t (fun () ->
        drive t ~ready ~block:(fun () ->
            Metrics.incr t.metrics Metrics.Ticket_waits;
            true))

let poll t ready =
  if not (ready ()) then with_lock t (fun () -> drive t ~ready ~block:(fun () -> false))

let finish t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.cond;
      drive t ~ready:(fun () -> false) ~block:(fun () -> t.claimed))
