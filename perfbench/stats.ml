(* Sample statistics for the benchmark's reports.

   A timing is reported as its median plus a tail percentile, always with
   its sample count, and a percentile is reported only when at least
   [min_beyond] samples lie beyond it: a p99 read off 200 samples is the
   second-largest value, not a percentile. *)

let min_beyond = 10

(* Growable sample buffer (floats; the benchmark records µs or ns). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done
end

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator):
   q = 0 is the minimum, q = 1 the maximum. [a] must be sorted and
   non-empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile_sorted: empty";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Samples strictly beyond the [q]-th percentile of [n] samples: those
   ranked above ceil(q * n). *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let reportable ~n q = n > 0 && beyond ~n q >= min_beyond

let percentile xs q =
  let n = Array.length xs in
  if reportable ~n q then Some (quantile_sorted (sorted xs) q) else None

let median xs =
  if Array.length xs = 0 then invalid_arg "Stats.median: empty";
  quantile_sorted (sorted xs) 0.5

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Median, p99 and mean of one timing series, computed with one sort. *)
type summary = { n : int; p50 : float option; p99 : float option; avg : float }

let summarize xs =
  let n = Array.length xs in
  let a = sorted xs in
  let pick q = if reportable ~n q then Some (quantile_sorted a q) else None in
  { n; p50 = pick 0.5; p99 = pick 0.99; avg = mean xs }
