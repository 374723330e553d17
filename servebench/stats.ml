(* Sample buffers and order statistics. Every gated timing is a median (or
   another quantile) over many samples taken inside one run, never a total
   or a mean: the host's speed drifts, and a median shrugs off the windows
   a slow spell lands in. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] when empty. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile t p = quantile_sorted (sorted t) p
let median t = quantile t 0.5

let mean t =
  if t.len = 0 then Float.nan
  else begin
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. float_of_int t.len
  end

(* Wall time of [f ()] in seconds, on the monotonic clock. *)
let time f =
  let t0 = Disclosure.Mclock.now_ns () in
  let r = f () in
  (r, Disclosure.Mclock.elapsed_s ~since:t0)

external cpu_ns : unit -> (int64[@unboxed]) = "servebench_cpu_ns" "servebench_cpu_ns_unboxed"
[@@noalloc]

(* Process CPU seconds so far (every thread), on a clock the host's CPU
   steal does not advance. *)
let cpu_s () = Int64.to_float (cpu_ns ()) /. 1e9

(* Wall and process CPU seconds of [f ()]. *)
let time_cpu f =
  let t0 = Disclosure.Mclock.now_ns () and c0 = cpu_ns () in
  let r = f () in
  let c1 = cpu_ns () in
  (r, Disclosure.Mclock.elapsed_s ~since:t0, Int64.to_float (Int64.sub c1 c0) /. 1e9)
