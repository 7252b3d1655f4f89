(* Nearest-rank percentiles over raw samples, and the guarded ratios the
   report derives its metrics from. *)

let sorted samples =
  let c = Array.copy samples in
  Array.sort compare c;
  c

(* The smallest sample with at least [pct] percent of the samples at or
   below it: 1-based rank ceil(pct * n / 100), computed in integers so
   that p99 of 1000 samples is rank 990, not 991. *)
let nearest_rank sorted ~pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Pct.nearest_rank: pct";
  let rank = ((pct * n) + 99) / 100 in
  sorted.(rank - 1)

let median values =
  let s = sorted values in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.median: no values";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* [num / den], or 0 when nothing was attempted: a layer that did no work
   on a workload reports 0 for its per-op ratios. *)
let ratio num den = if den = 0. then 0. else num /. den
let ratio_i num den = ratio (float_of_int num) (float_of_int den)
let pct_i part whole = 100. *. ratio_i part whole
let per_kop count ops = 1000. *. ratio_i count ops

(* The mean of the samples added between two readings of a cumulative
   (mean, count) pair. *)
let mean_between ~mean0 ~n0 ~mean1 ~n1 =
  ratio ((mean1 *. float_of_int n1) -. (mean0 *. float_of_int n0))
    (float_of_int (n1 - n0))
