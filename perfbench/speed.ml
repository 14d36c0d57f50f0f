(* The host's speed, measured around every timed interval.

   On a shared machine the speed of a core drifts: a fixed loop can take
   twice as long for several seconds and then speed up again, and runs
   made minutes apart differ by tens of percent. Such drift would swamp
   the solver changes the benchmark is meant to show. So the benchmark
   probes the host right before and right after every timed interval:
   it times a fixed kernel that belongs to the benchmark, not to the
   solver. The host's speed during an interval is the median of the
   probes taken from [window_s] before it to [window_s] after it, which
   follows the drift but not one probe's noise. A time is reported at
   the reference speed, [s *. reference_s /. speed]: the seconds it
   would take on a host where the kernel takes [reference_s]. *)

(* the kernel's time on a 2-vCPU Intel Xeon VM in a quiet phase, so
   reported times are close to that machine's seconds *)
let reference_s = 0.0075

(* hash-table lookups and small short-lived allocations, like the
   solver's own inner loops; of the kernels tried (scattered reads over a
   large table, pure arithmetic, this one), this one's time followed the
   solver's drift most closely. It touches nothing of the solver. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 32767 in
    match Hashtbl.find_opt h k with
    | Some (a :: _) ->
        acc := !acc + a;
        Hashtbl.replace h k [ i; a ]
    | Some [] | None -> Hashtbl.replace h k [ i ]
  done;
  ignore (Sys.opaque_identity !acc)

let median l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* every probe of this process: time taken, kernel seconds *)
let probes : (float * float) list ref = ref []

(* Probe the host: the fastest of three kernel runs, since interference
   only adds time. *)
let probe () =
  let once () =
    let t0 = Hqs_util.Budget.now () in
    kernel ();
    Hqs_util.Budget.now () -. t0
  in
  let p = Float.min (once ()) (Float.min (once ()) (once ())) in
  probes := (Hqs_util.Budget.now (), p) :: !probes

(* drop the probes so far: later intervals are timed in another setting *)
let forget () = probes := []

(* a timed interval: wall-clock start and end *)
type window = { start : float; stop : float }

(* Time [f ()], with a probe right before and right after. *)
let around f =
  probe ();
  let start = Hqs_util.Budget.now () in
  let r = f () in
  let stop = Hqs_util.Budget.now () in
  probe ();
  (r, { start; stop })

let window_s = 2.0

(* the kernel's time during [w]; call it once the probes after [w] are in *)
let speed w =
  median
    (List.filter_map
       (fun (t, p) -> if t >= w.start -. window_s && t <= w.stop +. window_s then Some p else None)
       !probes)

(* [s] seconds measured during [w], at the reference speed *)
let scale w s = s *. reference_s /. speed w
