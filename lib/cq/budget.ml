type exhaustion =
  | Fuel
  | Deadline

exception Exhausted of exhaustion

(* Deadline checks hit the clock, so they are amortized over this many fuel
   ticks. 128 ticks of homomorphism search take well under a microsecond;
   deadlines are meant at millisecond granularity. *)
let deadline_stride = 128

(* Deadlines are armed and checked on the monotonic clock: a wall-clock step
   (NTP, manual change) mid-query must neither spuriously expire a budget nor
   keep it alive past its real allowance. [Monotonic_clock] is the same
   bechamel stub behind [Disclosure.Mclock]; cq sits below disclosure in the
   dependency order, so it reads the stub directly. *)
let now_ns () = Monotonic_clock.now ()

type t = {
  limited : bool; (* false only for [unlimited]; fast-path discriminator *)
  mutable fuel : int;
  deadline_ns : int64; (* absolute monotonic ns; [Int64.max_int] = none *)
  mutable stride : int; (* ticks left until the next clock check *)
}

let unlimited =
  { limited = false; fuel = max_int; deadline_ns = Int64.max_int; stride = max_int }

let create ?fuel ?deadline () =
  match fuel, deadline with
  | None, None -> unlimited
  | _ ->
    let fuel =
      match fuel with
      | None -> max_int
      | Some f ->
        if f < 0 then invalid_arg "Budget.create: negative fuel";
        f
    in
    let deadline_ns =
      match deadline with
      | None -> Int64.max_int
      | Some s ->
        if s < 0.0 then invalid_arg "Budget.create: negative deadline";
        let ns = s *. 1e9 in
        (* A deadline beyond the representable range is no deadline. *)
        if ns >= 9.0e18 then Int64.max_int else Int64.add (now_ns ()) (Int64.of_float ns)
    in
    { limited = true; fuel; deadline_ns; stride = deadline_stride }

let expired t = t.limited && Int64.compare (now_ns ()) t.deadline_ns > 0

let check_deadline t = if expired t then raise (Exhausted Deadline)

let burn t n =
  if t.limited then begin
    t.fuel <- t.fuel - n;
    if t.fuel < 0 then begin
      t.fuel <- 0;
      raise (Exhausted Fuel)
    end;
    t.stride <- t.stride - n;
    if t.stride <= 0 then begin
      t.stride <- deadline_stride;
      if Int64.compare (now_ns ()) t.deadline_ns > 0 then raise (Exhausted Deadline)
    end
  end

let tick t = burn t 1

let remaining_fuel t = if t.limited then Some t.fuel else None

let exhaust t =
  if not t.limited then invalid_arg "Budget.exhaust: unlimited budget";
  t.fuel <- 0
