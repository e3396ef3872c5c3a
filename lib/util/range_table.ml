(* Open addressing over parallel arrays, one slot per key: the key's
   three words, a float stamp, an int value and a list of further ints.
   Probing is linear from a multiply-xorshift hash, the load stays at
   most one half (the arrays double past it), and a removal shifts the
   rest of its cluster back (Knuth's Algorithm R), so no tombstones
   build up.  Nothing is allocated once the arrays have grown: the PIT
   registers and satisfies a range per Interest/Data pair and a sending
   buffer checks a name per Data, so a tuple key or a hash-table bucket
   would be a per-packet allocation.  Slot order is a function of the
   hash and the history; no caller observes it (bulk removals sort their
   keys). *)

let empty = min_int

type t = {
  mutable flows : int array;  (** [empty] marks a free slot *)
  mutable los : int array;
  mutable his : int array;
  mutable stamps : float array;
  mutable values : int array;
  mutable more : int list array;
  mutable count : int;
}

(* One record per table, made with its owner (a midnode's PIT, a flow's
   sending buffer); the arrays wait for the first key. *)
let create () =
  ({
     flows = [||];
     los = [||];
     his = [||];
     stamps = [||];
     values = [||];
     more = [||];
     count = 0;
   }
  [@leotp.allow "hot-path-may-alloc"])

let length t = t.count
let slots t = Array.length t.flows
let occupied t s = t.flows.(s) <> empty
let flow t s = t.flows.(s)
let lo t s = t.los.(s)
let hi t s = t.his.(s)

let mix = 0x27d4eb2f165667c5

let home t ~flow ~lo ~hi =
  let h = ((flow * mix) lxor lo) * mix in
  let h = (h lxor hi) * mix in
  (h lxor (h lsr 32)) land (Array.length t.flows - 1)

let next t s = (s + 1) land (Array.length t.flows - 1)

(* Top-level recursion rather than while+ref: these run per packet, and
   a local [ref] is a minor-heap cell. *)
let rec probe t ~flow ~lo ~hi s =
  let f = t.flows.(s) in
  if f = empty then -1
  else if f = flow && t.los.(s) = lo && t.his.(s) = hi then s
  else probe t ~flow ~lo ~hi (next t s)

let find t ~flow ~lo ~hi =
  if t.count = 0 then -1 else probe t ~flow ~lo ~hi (home t ~flow ~lo ~hi)

let rec free_slot t s = if t.flows.(s) = empty then s else free_slot t (next t s)

(* Copy slot [src] of [from] into slot [dst] of [t], column by column:
   a float passed to a function that is not inlined would be boxed. *)
let copy ~from src t dst =
  t.flows.(dst) <- from.flows.(src);
  t.los.(dst) <- from.los.(src);
  t.his.(dst) <- from.his.(src);
  t.stamps.(dst) <- from.stamps.(src);
  t.values.(dst) <- from.values.(src);
  t.more.(dst) <- from.more.(src)

(* doubling growth: amortized O(1), not a steady-state allocation *)
let grow t =
  let old = { t with count = t.count } (* keeps the old arrays *) in
  let cap = max 16 (2 * Array.length old.flows) in
  t.flows <- Array.make cap empty;
  t.los <- Array.make cap 0;
  t.his <- Array.make cap 0;
  t.stamps <- Array.make cap 0.0;
  t.values <- Array.make cap 0;
  t.more <- Array.make cap [];
  for s = 0 to Array.length old.flows - 1 do
    let flow = old.flows.(s) in
    if flow <> empty then
      copy ~from:old s t
        (free_slot t (home t ~flow ~lo:old.los.(s) ~hi:old.his.(s)))
  done
[@@leotp.allow "hot-path-may-alloc"]

let add t ~flow ~lo ~hi =
  if flow = empty then invalid_arg "Range_table.add: flow min_int";
  if 2 * (t.count + 1) > Array.length t.flows then grow t;
  let s = free_slot t (home t ~flow ~lo ~hi) in
  t.flows.(s) <- flow;
  t.los.(s) <- lo;
  t.his.(s) <- hi;
  t.stamps.(s) <- 0.0;
  t.values.(s) <- 0;
  t.more.(s) <- [];
  t.count <- t.count + 1;
  s

(* Close the hole at [hole]: walk the cluster after it and pull back
   each key whose home does not lie cyclically in (hole, j], since
   the probe from its home would stop at the hole.  Returns the slot
   left free at the end. *)
let rec close t hole j =
  let j = next t j in
  let flow = t.flows.(j) in
  if flow = empty then hole
  else begin
    let h = home t ~flow ~lo:t.los.(j) ~hi:t.his.(j) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close t hole j
    else begin
      copy ~from:t j t hole;
      close t j j
    end
  end

let remove t s =
  let hole = close t s s in
  t.flows.(hole) <- empty;
  t.more.(hole) <- [];
  t.count <- t.count - 1

let clear t =
  Array.fill t.flows 0 (Array.length t.flows) empty;
  Array.fill t.more 0 (Array.length t.more) [];
  t.count <- 0

let set t s ~stamp ~value =
  t.stamps.(s) <- stamp;
  t.values.(s) <- value;
  t.more.(s) <- []

let younger t s ~now ~than = now -. t.stamps.(s) < than
let stamps t = t.stamps
let value t s = t.values.(s)
let more t s = t.more.(s)

(* One list cell per further value: a second consumer joining a pending
   range (multicast), not a per-packet event. *)
let push_more t s v = t.more.(s) <- (v :: t.more.(s) [@leotp.allow "hot-path-may-alloc"])
