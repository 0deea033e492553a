(* Machine speed, measured so that the end-to-end times can be scaled
   to a nominal machine.

   On a shared VM the same job's wall time drifts by a fifth or more
   from one half-minute to the next, and within a process by as much
   from one ten-second stretch to the next: other tenants contend for
   the caches and memory the libraries' hash tables and allocations live
   in, which the guest cannot see (no steal time; CPU time equals wall
   time).  A fixed probe that calls no library code is timed between
   jobs, outside the timed spans: a small hash-consed BDD of its own,
   built with a unique and a computed table as the kernel does, and a
   pointer chase through 32 MB.

   A job's time is scaled by an estimate of the probe's time while the
   job ran ([factor]).  For a short stretch between two probe points the
   mean of the two is a good estimate; for a stretch of several seconds
   the contention changes inside it, and the run's median point says as
   much.  So the estimate is a geometric blend of the two, the weight on
   the neighbouring points being [horizon_s / (horizon_s + stretch)].
   The jobs slow down less than the probe does, since only part of their
   time waits on memory, so the factor is the ratio of [nominal_s] to
   the estimate, to the power [exponent].  Both constants were chosen
   on 40 logged runs of the four workloads (a probe point around every
   job); README.md gives the spreads they gave. *)

(* The probe's median on the 2-vCPU Xeon the benchmark was defined on. *)
let nominal_s = 0.0070

(* How strongly a job's time follows the probe's, and the stretch of
   time over which the neighbouring points count as much as the run's
   median; see above. *)
let exponent = 0.85
let horizon_s = 2.0

(* Probe points per round, at fixed places spread evenly over its jobs,
   plus one after the last job. *)
let per_round = 20

(* Every timing, and every point, of the run. *)
let samples = ref []

type point = { time : float; at : float }

let points = ref []

(* The probe's BDD lives in fixed tables off the OCaml heap, so the
   probe allocates nothing: it moves neither the heap metrics nor the
   collector's pacing, and a change to the collector's settings does not
   move it. *)
let ints n = Bigarray.(Array1.create int c_layout n)
let capacity = 1 lsl 16
let var = ints capacity and lo = ints capacity and hi = ints capacity
let unique = ints (2 * capacity)  (* open addressing; -1 is empty *)
let memo_key = ints capacity and memo = ints capacity  (* direct-mapped *)
let count = ref 2
let slot a b c size = (((a * 1_000_003) lxor (b * 7_919) lxor (c * 104_729)) land max_int) mod size

let rec find v l h i =
  let id = unique.{i} in
  if id < 0 then begin
    let id = !count in
    incr count;
    var.{id} <- v;
    lo.{id} <- l;
    hi.{id} <- h;
    unique.{i} <- id;
    id
  end
  else if var.{id} = v && lo.{id} = l && hi.{id} = h then id
  else find v l h ((i + 1) mod Bigarray.Array1.dim unique)

let mk v l h = if l = h then l else find v l h (slot v l h (Bigarray.Array1.dim unique))

let top f = if f < 2 then max_int else var.{f}

(* op 0 = and, 1 = or, 2 = xor *)
let rec apply op f g =
  if f < 2 && g < 2 then match op with 0 -> f land g | 1 -> f lor g | _ -> f lxor g
  else begin
    let key = (((op * capacity) + f) * capacity) + g in
    let i = slot op f g capacity in
    if memo_key.{i} = key then memo.{i}
    else begin
      let v = min (top f) (top g) in
      let f0 = if top f = v then lo.{f} else f and f1 = if top f = v then hi.{f} else f in
      let g0 = if top g = v then lo.{g} else g and g1 = if top g = v then hi.{g} else g in
      let r = mk v (apply op f0 g0) (apply op f1 g1) in
      memo_key.{i} <- key;
      memo.{i} <- r;
      r
    end
  end

(* A 14-bit adder whose sum bits are masked and folded together. *)
let bdd () =
  Bigarray.Array1.fill unique (-1);
  Bigarray.Array1.fill memo_key (-1);
  count := 2;
  let n = 14 in
  let carry = ref 0 and acc = ref 0 in
  for i = 0 to n - 1 do
    let a = mk (2 * i) 0 1 and b = mk ((2 * i) + 1) 0 1 in
    let s = apply 2 (apply 2 a b) !carry in
    carry := apply 1 (apply 0 a b) (apply 0 !carry (apply 2 a b));
    acc := apply 2 !acc (apply 0 s (mk (((3 * i) + 5) mod (2 * n)) 0 1))
  done;
  !count

(* A full-period affine permutation. *)
let chase_table =
  let n = 1 lsl 22 in
  let t = ints n in
  for i = 0 to n - 1 do
    t.{i} <- ((i * 2654435761) + 12345) land (n - 1)
  done;
  t

let chase () =
  let x = ref 0 in
  for _ = 1 to 15_000 do
    x := Bigarray.Array1.unsafe_get chase_table !x
  done;
  !x

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nominal_s else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* One probe point: four timings back to back, since one alone is off
   by a quarter either way; the point's time is their median. *)
let run () =
  let times =
    List.init 4 (fun _ ->
        let t0 = Mono.now () in
        ignore (Sys.opaque_identity (bdd () + chase ()));
        let t = Mono.now () -. t0 in
        samples := t :: !samples;
        t)
  in
  let p = { time = median times; at = Mono.now () } in
  points := p :: !points;
  p

let run_median () = median (List.map (fun p -> p.time) !points)

(* The speed factor of work timed between points [before] and [after];
   [run] is the run's median point. *)
let factor ~run before after =
  let near = horizon_s /. (horizon_s +. (after.at -. before.at)) in
  let estimate = (((before.time +. after.time) /. 2.) ** near) *. (run ** (1. -. near)) in
  (nominal_s /. estimate) ** exponent
