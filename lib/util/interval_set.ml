(* Intervals keyed by their lower bound; invariant: values are > key,
   intervals are disjoint and non-adjacent (adjacent runs are merged).
   The covered-byte count is maintained incrementally so [cardinal] is
   O(1) — it sits on the midnode cache's per-packet insert path. *)

module M = Map.Make (Int)

type t = { ivals : int M.t; total : int }

let empty = { ivals = M.empty; total = 0 }
let is_empty t = M.is_empty t.ivals

(* The interval containing or preceding [x], if any. *)
(* No re-boxing match: [find_last_opt] already returns the (lo, hi)
   option we want.  The predicate closure captures [x] — inherent to the
   [Map] search API, one closure per lookup, traded for O(log n) ordered
   search. *)
let find_before x m =
  M.find_last_opt ((fun lo -> lo <= x) [@leotp.allow "hot-path-may-alloc"]) m

(* A functional interval map allocates its path of map nodes per insert
   by design; the receiver keeps O(holes) intervals, and the in-order
   common case is a single merged node. *)
let add ~lo ~hi t =
  if lo >= hi then t
  else begin
    (* Extend [lo, hi) to absorb an overlapping-or-adjacent predecessor
       (which may entirely contain the new range).  [absorbed] counts the
       bytes of every interval merged away, so the new total follows from
       the final merged extent alone. *)
    let absorbed = ref 0 in
    let lo, hi, m =
      match find_before lo t.ivals with
      | Some (plo, phi) when phi >= lo ->
        absorbed := !absorbed + (phi - plo);
        (min plo lo, max hi phi, M.remove plo t.ivals)
      | _ -> (lo, hi, t.ivals)
    in
    (* Absorb all successors starting within or adjacent to [lo, hi). *)
    let rec absorb hi m =
      match M.find_first_opt (fun l -> l >= lo) m with
      | Some (slo, shi) when slo <= hi ->
        absorbed := !absorbed + (shi - slo);
        absorb (max hi shi) (M.remove slo m)
      | _ -> (hi, m)
    in
    let hi, m = absorb hi m in
    { ivals = M.add lo hi m; total = t.total + (hi - lo) - !absorbed }
  end
[@@leotp.allow "hot-path-may-alloc"]

let remove ~lo ~hi t =
  if lo >= hi then t
  else begin
    let removed = ref 0 in
    let m =
      match find_before lo t.ivals with
      | Some (plo, phi) when phi > lo ->
        removed := !removed + (min phi hi - lo);
        let m = M.remove plo t.ivals in
        let m = if plo < lo then M.add plo lo m else m in
        if phi > hi then M.add hi phi m else m
      | _ -> t.ivals
    in
    let rec strip m =
      match M.find_first_opt (fun l -> l >= lo) m with
      | Some (slo, shi) when slo < hi ->
        removed := !removed + (min shi hi - slo);
        let m = M.remove slo m in
        let m = if shi > hi then M.add hi shi m else m in
        strip m
      | _ -> m
    in
    (* [strip] must run before [!removed] is read (record fields evaluate
       right to left), hence the explicit binding. *)
    let m = strip m in
    { ivals = m; total = t.total - !removed }
  end

let mem x t =
  match find_before x t.ivals with Some (_, hi) -> x < hi | None -> false

let covers ~lo ~hi t =
  lo >= hi
  || (match find_before lo t.ivals with
     | Some (_, phi) -> phi >= hi
     | None -> false)

let intersects ~lo ~hi t =
  if lo >= hi then false
  else
    (match find_before lo t.ivals with Some (_, phi) -> phi > lo | None -> false)
    ||
    (match M.find_first_opt (fun l -> l >= lo) t.ivals with
    | Some (slo, _) -> slo < hi
    | None -> false)

let fold f t init = M.fold f t.ivals init
let cardinal t = t.total
let intervals t = List.rev (fold (fun lo hi acc -> (lo, hi) :: acc) t [])
let count_intervals t = M.cardinal t.ivals

(* Walk only the intervals overlapping [lo, hi): start from the interval
   containing [lo] (if any) and step through successors — O(k log n) for
   k overlapping intervals instead of O(n) over the whole map. *)
let gaps ~lo ~hi t =
  if lo >= hi then []
  else begin
    let start =
      match find_before lo t.ivals with
      | Some (_, phi) when phi > lo -> phi
      | _ -> lo
    in
    let rec loop cursor acc =
      if cursor >= hi then List.rev acc
      else
        match M.find_first_opt (fun l -> l >= cursor) t.ivals with
        | Some (slo, shi) when slo < hi ->
          let acc = if slo > cursor then (cursor, slo) :: acc else acc in
          loop shi acc
        | _ -> List.rev ((cursor, hi) :: acc)
    in
    loop start []
  end

let first_missing ~lo t =
  match find_before lo t.ivals with
  | Some (_, hi) when hi > lo -> hi
  | _ -> lo

let union a b = fold (fun lo hi acc -> add ~lo ~hi acc) a b
let equal a b = M.equal Int.equal a.ivals b.ivals
