(* Summary statistics shared by every workload. *)

(* Nearest-rank percentile (rank = ceil (p/100 * n), 1-based), the same
   rule the program's own histograms use. *)
let percentile samples p = Obs.Hist.percentile_exact samples p

let median samples = percentile samples 50

(* Samples strictly beyond the p-th nearest-rank percentile.  A
   percentile is worth quoting when at least ten samples lie beyond it;
   the bench prints this count next to every tail latency. *)
let beyond n p =
  if n = 0 then 0
  else n - max 1 (int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n)))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

(* γS + (1−γ)D, the labeling objective of the paper (§VI-B). *)
let objective ~gamma ~s ~d = (gamma *. float_of_int s) +. ((1. -. gamma) *. float_of_int d)

(* Split request latencies by the reply's [cached] flag into
   (hits, misses). *)
let split_hits samples =
  let hits = List.filter_map (fun (cached, ms) -> if cached then Some ms else None) samples in
  let misses = List.filter_map (fun (cached, ms) -> if cached then None else Some ms) samples in
  Array.of_list hits, Array.of_list misses

(* Quantile of a log-bucketed [Obs.Hist] export, interpolated linearly
   inside the bucket that holds the nearest rank.  Bucket upper bounds
   alone would quantise a latency to steps of 2^(1/sub) and read the
   same on every run.  [lo] is the underflow bucket's bound (its lower
   edge is 0); the overflow bucket ([None]) reports the last finite
   bound. *)
let hist_quantile ~lo ~sub buckets p =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n))) in
    let step = 2. ** (1. /. float_of_int sub) in
    let rec walk cum last = function
      | [] -> last
      | (ub, c) :: rest ->
        if cum + c < rank then walk (cum + c) (Option.value ub ~default:last) rest
        else begin
          match ub with
          | None -> last
          | Some ub ->
            let lower = if ub <= lo *. (1. +. 1e-9) then 0. else ub /. step in
            lower +. ((ub -. lower) *. float_of_int (rank - cum) /. float_of_int c)
        end
    in
    walk 0 0. buckets
  end

(* A fixed compute kernel, timed next to deadline-free CPU work (before
   each mip-exact design, in the serve-mixed loop's pauses) to measure
   the host's current speed.  The host's slow phases stretch
   this kernel and the synthesis passes alike: pass by pass the two
   correlate at 0.86, and over 8-pass windows the median raw pass time
   moved 1.8x where the normalized one moved 1.15x.  The kernel works on
   a 4 KB array that stays in L1 and allocates nothing, so the program
   under test cannot change its cost. *)
let kernel_data = Array.init 512 (fun i -> float_of_int (i land 255))

let kernel () =
  let t0 = Obs.Clock.now () in
  let s = ref 0. in
  for _ = 1 to 2400 do
    for i = 0 to Array.length kernel_data - 1 do
      s := !s +. (kernel_data.(i) *. 1.0000001)
    done
  done;
  ignore (Sys.opaque_identity !s);
  Obs.Clock.now () -. t0

(* The kernel's time in an uncontended phase of a 2-vCPU, 2.1 GHz
   host.  It only fixes the scale of normalized times. *)
let kernel_nominal = 0.0008

(* Scale a measured time to nominal host speed, given the kernel times
   measured alongside it. *)
let normalize secs kernels = secs *. kernel_nominal /. mean kernels
