(* Host-speed reference kernel.

   On a shared VM the host's speed drifts by up to 2x over phases of a
   few seconds, and a simulation iteration slows down and speeds up with
   it (its wall time correlated at 0.8 with this kernel's on the 2-vCPU
   box the benchmark was tuned on).  Timing this fixed piece of work next
   to every iteration, and stating throughput per unit of its time,
   cancels most of that drift: over 15 s windows the spread of the
   medians fell from 36 % (raw wall time) to 4 %.

   The kernel is a binary-heap event loop over boxed records with short
   lists, so it allocates and chases pointers the way the simulator's
   engine does.  It uses no library code, so no change to the simulator
   can move it. *)

type ev = { at : float; k : int; hist : int list }

let events = 60_000
let live = 4096

let run () =
  let heap = Array.make (live + 1) { at = 0.0; k = 0; hist = [] } in
  let size = ref 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let push e =
    let i = ref !size in
    incr size;
    heap.(!i) <- e;
    while !i > 0 && heap.((!i - 1) / 2).at > heap.(!i).at do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !size && heap.(l).at < heap.(!m).at then m := l;
      if r < !size && heap.(r).at < heap.(!m).at then m := r;
      if !m = !i then continue := false
      else begin
        swap !m !i;
        i := !m
      end
    done;
    top
  in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !seed /. 1073741824.0
  in
  for k = 1 to live do
    push { at = next (); k; hist = [ k ] }
  done;
  let sum = ref 0 in
  for _ = 1 to events do
    let e = pop () in
    sum := !sum + e.k;
    push
      {
        at = e.at +. next ();
        k = e.k + 1;
        hist = e.k :: List.filteri (fun i _ -> i < 3) e.hist;
      }
  done;
  !sum

(* Host seconds of one run of the kernel. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ()));
  Unix.gettimeofday () -. t0

(* The kernel's time at the reference host speed: about its median on
   the box the benchmark was tuned on.  A reference second is a host
   second scaled by [nominal_s /. time ()] taken next to it, so
   normalised figures stay near the raw ones there. *)
let nominal_s = 0.03

let to_ref_s ~kernel_s wall_s = wall_s *. nominal_s /. kernel_s
