(* Machine-speed reference for the end-to-end times.

   On a shared host the speed of identical work drifts over seconds and
   minutes, by up to 2x, so raw wall times of the same code taken at
   different moments disagree by far more than the changes a benchmark is
   meant to see. The probe below is fixed code of the benchmark's own,
   unrelated to the program: an integer mixing loop that touches no memory
   and allocates nothing, so neither the program's heap nor what it left in
   the caches can change the probe's cost; only the processor's speed can.

   The end-to-end run interleaves an untimed probe between jobs every
   [probe_every] seconds. A time taken at moment [t] is reported in
   reference seconds: multiplied by [(nominal / p) ** sensitivity], where
   [p] is the median probe duration within [window] seconds of [t] and
   [nominal] is the probe's duration on the reference machine. The program
   reacts to a slower host more strongly than the probe: the logarithm of
   its slowdown moved 1.7 to 2.5 times as far as the probe's between
   moments of one run (least-squares slope over ~19 000 compile_cold and
   paper_sim jobs) and 1.8 to 2.4 times as far between whole runs (ten
   to twenty runs of each workload, while the host ran at 1.0x to 0.5x
   its quiet speed); the exponent is 2. Work that gets slower on
   the same machine still reads slower; the machine getting slower mostly
   does not. *)

(* Probe duration on the reference machine (2-vCPU x86-64 virtual machine,
   OCaml 5.1.1, quiet host). *)
let nominal = 0.00090

let sensitivity = 2.0
let probe_every = 0.025
let window = 0.5
let mix_steps = 200_000
let sink = ref 0

let work () =
  let acc = ref !sink in
  for k = 1 to mix_steps do
    acc := (!acc * 31) + k;
    if !acc land 8 = 0 then acc := !acc lxor (!acc lsr 7)
  done;
  sink := !acc

(* -- Samples ---------------------------------------------------------------- *)

(* (moment, probe duration), newest first. *)
let samples : (float * float) list ref = ref []
let last = ref neg_infinity
let active = ref false

(* Seconds spent probing; timed phases subtract it. *)
let spent = ref 0.0

let probe () =
  let t0 = Unix.gettimeofday () in
  work ();
  let t1 = Unix.gettimeofday () in
  samples := ((t0 +. t1) /. 2.0, t1 -. t0) :: !samples;
  last := t1;
  spent := !spent +. (t1 -. t0)

let probes (n : int) =
  for _ = 1 to n do
    probe ()
  done

(** Forget earlier samples. *)
let reset () =
  samples := [];
  last := neg_infinity

(** Probe between jobs until [stop]; [tick] does nothing otherwise. *)
let start () =
  reset ();
  active := true;
  probes 3

let stop () =
  probes 3;
  active := false

(** Between jobs: probe when the last probe is older than [probe_every]. *)
let tick () = if !active && Unix.gettimeofday () -. !last >= probe_every then probe ()

let median (xs : float list) : float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let scale (p : float) : float = (nominal /. p) ** sensitivity

(** Median probe duration over the current samples. *)
let median_probe () : float = median (List.map snd !samples)

(** Reference seconds per measured second, over all current samples. *)
let overall () : float = scale (median_probe ())

(** Reference seconds per measured second at a moment: from the median
    probe within [window] of it, or of the three nearest probes when fewer
    lie in the window. *)
let factor_at () : float -> float =
  let a = Array.of_list (List.rev !samples) in
  let n = Array.length a in
  (* First index whose moment is >= t. *)
  let lower t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun t ->
    let i = lower (t -. window) and j = lower (t +. window) in
    let i, j =
      if j - i >= 3 then (i, j)
      else
        let k = lower t in
        let i = max 0 (min (k - 2) (n - 3)) in
        (i, min n (i + 3))
    in
    scale (median (List.map snd (Array.to_list (Array.sub a i (j - i)))))
