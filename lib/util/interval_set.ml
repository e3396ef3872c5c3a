(* The set is the first [n] pairs of [spans], pair [k] at [2k] and
   [2k + 1]: sorted, disjoint, non-adjacent absolute [lo, hi) pairs.
   [total] counts the points they cover. *)
type t = { mutable spans : int array; mutable n : int; mutable total : int }

let create () = { spans = Array.make 8 0; n = 0; total = 0 }
(* one record and array per flow endpoint or cache block, not per packet *)
[@@leotp.allow "hot-path-may-alloc"]

let clear t =
  t.n <- 0;
  t.total <- 0

let cardinal t = t.total

(* Index of the first of spans [i, j) ending at or after [x], by binary
   search over the span ends; [j] when none does. *)
let rec first_ending s x i j =
  if i >= j then i
  else
    let m = (i + j) lsr 1 in
    if s.((2 * m) + 1) < x then first_ending s x (m + 1) j
    else first_ending s x i m

(* Index past the last span starting at or before [hi]. *)
let rec past_touching s n hi j =
  if j < n && s.(2 * j) <= hi then past_touching s n hi (j + 1) else j

let rec covered_in s k j acc =
  if k = j then acc
  else covered_in s (k + 1) j (acc + s.((2 * k) + 1) - s.(2 * k))

let grow t =
  let s = Array.make (2 * Array.length t.spans) 0 in
  Array.blit t.spans 0 s 0 (2 * t.n);
  t.spans <- s
(* doubling growth: the array never shrinks, so a set of n spans grows
   it O(log n) times *)
[@@leotp.allow "hot-path-may-alloc"]

(* Spans [i, j) are the ones [lo, hi) overlaps or abuts.  With none,
   [lo, hi) goes in as span [i]; otherwise they and [lo, hi) merge into
   span [i].  The tail moves by plain int loops: [Array.blit] on an
   array in the major heap runs the write barrier on every element. *)
let add t ~lo ~hi =
  if lo >= hi then 0
  else begin
    let n = t.n in
    let i = first_ending t.spans lo 0 n in
    let j = past_touching t.spans n hi i in
    let added =
      if i = j then begin
        if 2 * (n + 1) > Array.length t.spans then grow t;
        let s = t.spans in
        for k = (2 * n) + 1 downto (2 * i) + 2 do
          s.(k) <- s.(k - 2)
        done;
        s.(2 * i) <- lo;
        s.((2 * i) + 1) <- hi;
        t.n <- n + 1;
        hi - lo
      end
      else begin
        let s = t.spans in
        let lo' = min lo s.(2 * i) and hi' = max hi s.((2 * (j - 1)) + 1) in
        let before = covered_in s i j 0 in
        s.(2 * i) <- lo';
        s.((2 * i) + 1) <- hi';
        let shift = 2 * (j - i - 1) in
        for k = 2 * (i + 1) to (2 * (n - (j - i - 1))) - 1 do
          s.(k) <- s.(k + shift)
        done;
        t.n <- n - (j - i - 1);
        hi' - lo' - before
      end
    in
    t.total <- t.total + added;
    added
  end

(* The span ending first at or after [hi] is the only one that can hold
   all of [lo, hi). *)
let covers t ~lo ~hi =
  lo >= hi
  ||
  let i = first_ending t.spans hi 0 t.n in
  i < t.n && t.spans.(2 * i) <= lo

let first_missing t ~lo =
  let i = first_ending t.spans (lo + 1) 0 t.n in
  if i < t.n && t.spans.(2 * i) <= lo then t.spans.((2 * i) + 1) else lo

let first_present t ~lo =
  let i = first_ending t.spans (lo + 1) 0 t.n in
  if i < t.n then max lo t.spans.(2 * i) else max_int
