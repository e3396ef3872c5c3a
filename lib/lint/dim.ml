(* leotp-dim: interprocedural dimensional analysis (units of measure).

   The protocol math is all bare [float]/[int]: seconds next to bytes,
   Mbps next to bytes/second, km next to m.  This pass infers a unit
   for as many expressions as it can and flags arithmetic that mixes
   incompatible units, on the Callgraph front end and kernel shared
   with the other interprocedural passes (per-file defs, cross-file
   resolution, a per-parameter summary fixpoint like own.ml's role
   inference).

   The lattice is deliberately small:

     base  := seconds | ms | us | bytes | bits | mb | packets
            | meters | km | seqno
     u     := base | base per base (a rate) | mbps | dimensionless

   Values start Unknown and only become Known through evidence:

   - {b seeds} — known signatures: every [Leotp_util.Units] conversion,
     [Engine.now]/[schedule]/[arm]/[run] times, [Link] delay and rate
     accessors, [Bandwidth] Mbps constructors, [Rto] times, [Cc]
     window sizes, [Geo] distances, and the packet wire accessors
     ([Wire.timestamp] is seconds, [Wire.send_rate] bytes/s, ...).
     A typed event's delay reaches the engine through a slot
     ([Engine.post_delay]), so the seconds enter where [Link]'s inlined
     [post ~after] is pinned (below), and its delays stay checked.
   - {b pins} — [[@@leotp.dim "seconds dt, returns bytes"]] on a
     binding, or [(e [@leotp.dim "seconds"])] on an expression
     (grammar-checked; violations are [dim-annotation] findings).
   - {b propagation} — a per-parameter fixpoint: a parameter's unit
     comes from evidence in its own body (passed to a slot with a
     known unit, or added to / compared with a known value).  It is
     deliberately {e not} inferred from call sites: generic helpers
     ([Stats.add], [clamp]) must stay polymorphic in units.

   Arithmetic is then checked bottom-up: [+.]/[-.]/comparisons/
   [min]/[max] demand equal units ([dim-mixed-arith], or
   [dim-seqno-arith] when an ordinal sequence number meets a size);
   products and quotients follow a small dimensional algebra
   (rate x time = amount, amount / time = rate, x / x = dimensionless)
   with [dim-bad-product] for rate x rate and time x time; and a
   Known value scaled by a magic constant that re-derives a [Units]
   helper ([*. 1000.] on seconds, [/. 8.] on bits, ...) is
   [dim-raw-conversion].  An unknown operand never flags: one-sided
   multiplication is scalar scaling by assumption.

   Findings are reported for lib/ only (bench/bin display math is out
   of scope) and never for units.ml itself, whose whole business is
   the raw conversions.  Like every leotp-lint pass this is
   best-effort and syntactic: record fields are untracked, so a unit
   laundered through a field read comes back Unknown.  Every finding
   carries a witness chain from the seed or pin that introduced each
   unit, and the escape hatch is a justified [[@leotp.allow
   "rule-id"]] at the site. *)

open Ppxlib
open Callgraph

let mixed_id = "dim-mixed-arith"
let product_id = "dim-bad-product"
let conv_id = "dim-raw-conversion"
let seqno_id = "dim-seqno-arith"
let annot_id = "dim-annotation"
let dim_attr = "leotp.dim"

let rules =
  [
    ( mixed_id,
      "arithmetic or a comparison mixes incompatible units of measure \
       (seconds + bytes, ms passed where a seeded signature expects \
       seconds); convert via Leotp_util.Units or pin with [@leotp.dim] \
       (interprocedural)" );
    ( product_id,
      "a product multiplies two rates or two durations; no protocol \
       quantity has that unit, so one factor is almost certainly wrong \
       (interprocedural)" );
    ( conv_id,
      "a magic constant re-derives a Leotp_util.Units conversion on a \
       value with a known unit (*. 1000. on seconds, /. 8. on bits, \
       ...); call the named Units helper instead (interprocedural)" );
    ( seqno_id,
      "an ordinal sequence number is used as a byte/bit/packet count or \
       vice versa; offsets difference to counts, they do not add to \
       sizes (interprocedural)" );
    ( annot_id,
      "a [@leotp.dim] payload does not follow the grammar \"<unit> \
       <param>...\" | \"returns <unit>\" | \"<unit>\" (clauses \
       comma-separated), uses an unknown unit, or names a parameter the \
       function does not have" );
  ]

(* Findings are scoped to lib/: bench/ and bin/ are presentation code.
   units.ml is the one lib/ file whose business is raw conversions. *)
let reportable path =
  (place path).scope = Lib && Filename.basename path <> "units.ml"

(* ------------------------------------------------------------------ *)
(* The unit lattice *)

type base =
  | Seconds
  | Millis
  | Micros
  | Bytes
  | Bits
  | Megabytes
  | Packets
  | Meters
  | Km
  | Seqno

type u = Base of base | Rate of base * base | Mbps | Dimensionless

let base_name = function
  | Seconds -> "seconds"
  | Millis -> "ms"
  | Micros -> "us"
  | Bytes -> "bytes"
  | Bits -> "bits"
  | Megabytes -> "mb"
  | Packets -> "packets"
  | Meters -> "meters"
  | Km -> "km"
  | Seqno -> "seqno"

let u_name = function
  | Base b -> base_name b
  | Rate (a, b) -> Printf.sprintf "%s_per_%s" (base_name a) (base_name b)
  | Mbps -> "mbps"
  | Dimensionless -> "dimensionless"

let base_of_name = function
  | "seconds" | "sec" | "s" -> Some Seconds
  | "ms" -> Some Millis
  | "us" -> Some Micros
  | "bytes" -> Some Bytes
  | "bits" -> Some Bits
  | "mb" -> Some Megabytes
  | "packets" -> Some Packets
  | "meters" -> Some Meters
  | "km" -> Some Km
  | "seqno" -> Some Seqno
  | _ -> None

(* "bytes_per_sec" -> Rate (Bytes, Seconds); the separator is the
   literal substring "_per_". *)
let split_per s =
  let sep = "_per_" in
  let n = String.length s and m = String.length sep in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else find (i + 1)
  in
  find 0

let u_of_name s =
  match s with
  | "mbps" -> Some Mbps
  | "dimensionless" | "scalar" -> Some Dimensionless
  | _ -> (
    match base_of_name s with
    | Some b -> Some (Base b)
    | None -> (
      match split_per s with
      | Some (a, b) -> (
        match (base_of_name a, base_of_name b) with
        | Some a, Some b -> Some (Rate (a, b))
        | _ -> None)
      | None -> None))

let unit_grammar =
  "seconds|ms|us|bytes|bits|mb|packets|meters|km|seqno|mbps|dimensionless|\
   <base>_per_<base>"

(* A known value: its unit plus the chain of evidence that produced
   it, origin first ("Engine.now returns seconds (seed)" -> ...). *)
type value = { vu : u; vprov : string list }

let fmt_prov prov = String.concat " -> " (elide ~max:5 ~head:2 ~tail:2 prov)
let describe v = Printf.sprintf "%s (via %s)" (u_name v.vu) (fmt_prov v.vprov)

(* ------------------------------------------------------------------ *)
(* Seed signatures *)

type slot = Lbl of string | Pos of int

let slot_desc = function
  | Lbl s -> "~" ^ s
  | Pos i -> Printf.sprintf "arg %d" (i + 1)

type seed = { s_fn : string; s_args : (slot * u) list; s_ret : u option }

let bps = Rate (Bytes, Seconds)

let seeds =
  [
    (* Leotp_util.Units conversions: argument and result units are the
       ground truth of the whole analysis. *)
    { s_fn = "Units.mbps_to_bytes_per_sec"; s_args = [ (Pos 0, Mbps) ]; s_ret = Some bps };
    { s_fn = "Units.bytes_per_sec_to_mbps"; s_args = [ (Pos 0, bps) ]; s_ret = Some Mbps };
    { s_fn = "Units.ms_to_sec"; s_args = [ (Pos 0, Base Millis) ]; s_ret = Some (Base Seconds) };
    { s_fn = "Units.sec_to_ms"; s_args = [ (Pos 0, Base Seconds) ]; s_ret = Some (Base Millis) };
    { s_fn = "Units.usec_to_sec"; s_args = [ (Pos 0, Base Micros) ]; s_ret = Some (Base Seconds) };
    { s_fn = "Units.sec_to_usec"; s_args = [ (Pos 0, Base Seconds) ]; s_ret = Some (Base Micros) };
    { s_fn = "Units.km_to_m"; s_args = [ (Pos 0, Base Km) ]; s_ret = Some (Base Meters) };
    { s_fn = "Units.m_to_km"; s_args = [ (Pos 0, Base Meters) ]; s_ret = Some (Base Km) };
    { s_fn = "Units.mb_to_bytes"; s_args = [ (Pos 0, Base Megabytes) ]; s_ret = Some (Base Bytes) };
    { s_fn = "Units.bytes_to_mb"; s_args = [ (Pos 0, Base Bytes) ]; s_ret = Some (Base Megabytes) };
    { s_fn = "Units.mb_to_bytes_int"; s_args = [ (Pos 0, Base Megabytes) ]; s_ret = Some (Base Bytes) };
    { s_fn = "Units.bytes_to_mb_int"; s_args = [ (Pos 0, Base Bytes) ]; s_ret = Some (Base Megabytes) };
    { s_fn = "Units.bytes_to_bits"; s_args = [ (Pos 0, Base Bytes) ]; s_ret = Some (Base Bits) };
    { s_fn = "Units.bits_to_bytes"; s_args = [ (Pos 0, Base Bits) ]; s_ret = Some (Base Bytes) };
    (* Simulated time. *)
    { s_fn = "Engine.now"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Engine.schedule"; s_args = [ (Lbl "after", Base Seconds) ]; s_ret = None };
    { s_fn = "Engine.schedule_at"; s_args = [ (Lbl "time", Base Seconds) ]; s_ret = None };
    { s_fn = "Engine.arm"; s_args = [ (Lbl "after", Base Seconds) ]; s_ret = None };
    { s_fn = "Engine.arm_at"; s_args = [ (Lbl "time", Base Seconds) ]; s_ret = None };
    { s_fn = "Engine.run"; s_args = [ (Lbl "until", Base Seconds) ]; s_ret = None };
    (* Links and bandwidth processes. *)
    { s_fn = "Link.create"; s_args = [ (Lbl "delay", Base Seconds) ]; s_ret = None };
    { s_fn = "Link.delay"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Link.set_delay"; s_args = [ (Pos 1, Base Seconds) ]; s_ret = None };
    { s_fn = "Link.current_rate"; s_args = []; s_ret = Some bps };
    { s_fn = "Link.queue_bytes"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Link.set_buffer_bytes"; s_args = [ (Pos 1, Base Bytes) ]; s_ret = None };
    { s_fn = "Link.queued_packets"; s_args = []; s_ret = Some (Base Packets) };
    { s_fn = "Link.in_flight"; s_args = []; s_ret = Some (Base Packets) };
    { s_fn = "Bandwidth.constant_mbps"; s_args = [ (Pos 0, Mbps) ]; s_ret = None };
    { s_fn = "Bandwidth.square_mbps";
      s_args = [ (Lbl "mean", Mbps); (Lbl "amplitude", Mbps); (Lbl "period", Base Seconds) ];
      s_ret = None };
    { s_fn = "Bandwidth.at"; s_args = [ (Pos 1, Base Seconds) ]; s_ret = Some bps };
    (* RTO estimation (RFC 6298): everything is seconds. *)
    { s_fn = "Rto.create";
      s_args = [ (Lbl "min_rto", Base Seconds); (Lbl "max_rto", Base Seconds) ];
      s_ret = None };
    { s_fn = "Rto.observe";
      s_args = [ (Lbl "now", Base Seconds); (Lbl "sent", Base Seconds) ];
      s_ret = None };
    { s_fn = "Rto.stamp"; s_args = [ (Lbl "now", Base Seconds) ]; s_ret = None };
    { s_fn = "Rto.rto"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Rto.base_rto"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Rto.srtt"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Rto.timeout_floor"; s_args = [ (Lbl "timeout", Base Seconds) ];
      s_ret = Some (Base Seconds) };
    (* Congestion-control window sizes are bytes (fmss floats an
       integral MSS). *)
    { s_fn = "Cc.fmss"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Cc.initial_window"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Cc.min_window"; s_args = []; s_ret = Some (Base Bytes) };
    (* Orbital geometry: distances in meters, delays in seconds. *)
    { s_fn = "Geo.distance"; s_args = []; s_ret = Some (Base Meters) };
    { s_fn = "Geo.great_circle_distance"; s_args = []; s_ret = Some (Base Meters) };
    { s_fn = "Geo.propagation_delay"; s_args = [ (Pos 0, Base Meters) ]; s_ret = Some (Base Seconds) };
    (* Packet wire accessors: float-slot roles from lib/core/wire.ml
       and lib/tcp/wire.ml (both modules are named Wire; the slots
       agree).  lo/hi/seq are byte offsets, so differences are byte
       counts. *)
    { s_fn = "Wire.timestamp"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Wire.sent_at"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Wire.first_sent"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Wire.req_owd"; s_args = []; s_ret = Some (Base Seconds) };
    { s_fn = "Wire.send_rate"; s_args = []; s_ret = Some bps };
    { s_fn = "Wire.lo"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Wire.hi"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Wire.seq"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Wire.length"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Wire.len"; s_args = []; s_ret = Some (Base Bytes) };
    { s_fn = "Wire.set_ts_echo"; s_args = [ (Pos 1, Base Seconds) ]; s_ret = None };
    { s_fn = "Wire.interest_packet";
      s_args = [ (Lbl "lo", Base Bytes); (Lbl "hi", Base Bytes); (Lbl "timestamp", Base Seconds); (Lbl "send_rate", bps) ];
      s_ret = None };
    { s_fn = "Wire.data_packet";
      s_args =
        [ (Lbl "lo", Base Bytes); (Lbl "hi", Base Bytes); (Lbl "timestamp", Base Seconds);
          (Lbl "req_owd", Base Seconds); (Lbl "first_sent", Base Seconds);
          (Lbl "seq", Base Bytes); (Lbl "len", Base Bytes); (Lbl "sent_at", Base Seconds) ];
      s_ret = None };
    { s_fn = "Wire.vph_packet";
      s_args = [ (Lbl "lo", Base Bytes); (Lbl "hi", Base Bytes); (Lbl "timestamp", Base Seconds) ];
      s_ret = None };
  ]

(* Known constants. *)
let ident_seeds =
  [
    ("Units.speed_of_light", Rate (Meters, Seconds));
    ("Units.earth_radius", Base Meters);
  ]

let seeds_for n = List.filter (fun s -> ends_with_any [ s.s_fn ] n) seeds

let ident_seed n =
  List.find_map
    (fun (i, u) ->
      if ends_with_any [ i ] n then
        Some { vu = u; vprov = [ Printf.sprintf "%s is %s (seed)" i (u_name u) ] }
      else None)
    ident_seeds

(* ------------------------------------------------------------------ *)
(* Aliases *)

let rec alias_of (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (ident_name txt)
  | Pexp_constraint (inner, _) -> alias_of inner
  | _ -> None

(* The target of an alias binding, whose RHS is a bare ident
   ([let mbps = Units....]). *)
let alias (d : def) = if is_function d.expr then None else alias_of d.expr

(* ------------------------------------------------------------------ *)
(* Summaries and the environment *)

type summary = {
  sm_param : value option array;
  sm_forced : bool array;  (** pinned by a seed or [@leotp.dim] *)
  mutable sm_ret : value option;
  mutable sm_ret_forced : bool;
}

type env = {
  defs : def index;
  summary : def -> summary;
  mutable changed : bool;
}

let new_summary (d : def) =
  let n = List.length d.params in
  {
    sm_param = Array.make n None;
    sm_forced = Array.make n false;
    sm_ret = None;
    sm_ret_forced = false;
  }

(* Slot of the i-th parameter: its label, or its rank among the
   unlabeled parameters. *)
let slot_of_params params =
  let pos = ref 0 in
  List.map
    (fun p ->
      match p.plabel with
      | Labelled s | Optional s -> (Lbl s, p)
      | Nolabel ->
        let k = !pos in
        incr pos;
        (Pos k, p))
    params

(* The visible signature of a callee written [n]: expected slot units
   and the return unit, combining matching seeds with resolved def
   summaries (alias bindings forward to their target). *)
type callee_sig = { cs_slots : (slot * value) list; cs_ret : value option }

let empty_sig = { cs_slots = []; cs_ret = None }

let rec callee_sig env ~depth ~scope n : callee_sig =
  if depth > 4 then empty_sig
  else begin
    let matching = seeds_for n in
    let seed_slots =
      List.concat_map
        (fun s ->
          List.map
            (fun (slot, u) ->
              ( slot,
                {
                  vu = u;
                  vprov =
                    [
                      Printf.sprintf "%s %s is %s (seed)" s.s_fn
                        (slot_desc slot) (u_name u);
                    ];
                } ))
            s.s_args)
        matching
    in
    let seed_ret =
      List.find_map
        (fun s ->
          match s.s_ret with
          | Some u ->
            Some
              {
                vu = u;
                vprov =
                  [ Printf.sprintf "%s returns %s (seed)" s.s_fn (u_name u) ];
              }
          | None -> None)
        matching
    in
    let ds = resolve env.defs ~scope n in
    let def_slots, def_ret =
      List.fold_left
        (fun (slots, ret) (d : def) ->
          match alias d with
          | Some target ->
            let s = callee_sig env ~depth:(depth + 1) ~scope:d.scope target in
            (slots @ s.cs_slots, if ret = None then s.cs_ret else ret)
          | None ->
            let sm = env.summary d in
            let dslots =
              List.mapi
                (fun i (slot, _) ->
                  match sm.sm_param.(i) with
                  | Some v -> Some (slot, v)
                  | None -> None)
                (slot_of_params d.params)
              |> List.filter_map Fun.id
            in
            (slots @ dslots, if ret = None then sm.sm_ret else ret))
        ([], None) ds
    in
    {
      cs_slots = seed_slots @ def_slots;
      cs_ret = (match seed_ret with Some _ -> seed_ret | None -> def_ret);
    }
  end

(* ------------------------------------------------------------------ *)
(* Annotation grammar: "<unit> <param>...", "returns <unit>" or a bare
   "<unit>" (expression pins and parameterless bindings), clauses
   separated by commas. *)

type clause = CRet of u | CParams of u * string list | CBare of u

let parse_dim payload : (clause list, string) result =
  let clauses =
    String.split_on_char ',' payload
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if clauses = [] then Error "empty payload"
  else
    let parse_clause c =
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' ' c)
      in
      match words with
      | [] -> Error "empty clause"
      | [ "returns" ] -> Error "\"returns\" needs a unit"
      | [ "returns"; uw ] -> (
        match u_of_name uw with
        | Some u -> Ok (CRet u)
        | None ->
          Error
            (Printf.sprintf "unknown unit %S (expected %s)" uw unit_grammar))
      | "returns" :: _ -> Error "\"returns\" takes exactly one unit"
      | uw :: params -> (
        match u_of_name uw with
        | None ->
          Error
            (Printf.sprintf "unknown unit %S (expected %s)" uw unit_grammar)
        | Some u ->
          if params = [] then Ok (CBare u) else Ok (CParams (u, params)))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: tl -> (
        match parse_clause c with
        | Ok cl -> go (cl :: acc) tl
        | Error e -> Error e)
    in
    go [] clauses

(* Pin a binding's [@leotp.dim] clauses into its summary.  Grammar
   errors are ignored here and reported as dim-annotation findings by
   the report pass. *)
let apply_pins env (d : def) =
  let sm = env.summary d in
  List.iter
    (fun (payload, _) ->
      match parse_dim payload with
      | Error _ -> ()
      | Ok clauses ->
        let pin_ret u =
          sm.sm_ret <-
            Some
              {
                vu = u;
                vprov =
                  [
                    Printf.sprintf "%s returns %s ([@leotp.dim] pin)"
                      d.qname (u_name u);
                  ];
              };
          sm.sm_ret_forced <- true
        in
        List.iter
          (fun cl ->
            match cl with
            | CRet u -> pin_ret u
            | CBare u -> if d.params = [] then pin_ret u
            | CParams (u, names) ->
              List.iteri
                (fun i p ->
                  if List.mem p.pname names then begin
                    sm.sm_param.(i) <-
                      Some
                        {
                          vu = u;
                          vprov =
                            [
                              Printf.sprintf "%s %s is %s ([@leotp.dim] pin)"
                                d.qname p.pname (u_name u);
                            ];
                        };
                    sm.sm_forced.(i) <- true
                  end)
                d.params)
          clauses)
    (payloads dim_attr d.attrs)

(* Pin the seed table into the seeded functions' own summaries, so
   their parameters carry units inside their own bodies too. *)
let apply_seeds env (d : def) =
  let sm = env.summary d in
  List.iter
    (fun s ->
      List.iter
        (fun (slot, u) ->
          List.iteri
            (fun i (pslot, p) ->
              let hit =
                match (slot, pslot) with
                | Lbl a, Lbl b -> a = b
                | Pos a, Pos b -> a = b
                | Lbl a, Pos _ -> p.pname = a
                | _ -> false
              in
              if hit && sm.sm_param.(i) = None then begin
                sm.sm_param.(i) <-
                  Some
                    {
                      vu = u;
                      vprov =
                        [
                          Printf.sprintf "%s %s is %s (seed)" s.s_fn
                            (slot_desc slot) (u_name u);
                        ];
                    };
                sm.sm_forced.(i) <- true
              end)
            (slot_of_params d.params))
        s.s_args;
      match s.s_ret with
      | Some u when not sm.sm_ret_forced ->
        sm.sm_ret <-
          Some
            {
              vu = u;
              vprov =
                [ Printf.sprintf "%s returns %s (seed)" s.s_fn (u_name u) ];
            };
        sm.sm_ret_forced <- true
      | _ -> ())
    (seeds_for d.qname)

(* ------------------------------------------------------------------ *)
(* The dimensional algebra *)

let is_time = function Seconds | Millis | Micros -> true | _ -> false
let is_amount = function Bytes | Bits | Megabytes | Packets -> true | _ -> false

(* add/sub/compare: which rule (if any) does mixing [a] and [b]
   violate? *)
let mix_rule a b =
  if a = b then None
  else
    let seqno_size x y =
      match (x, y) with
      | Base Seqno, Base z -> is_amount z
      | _ -> false
    in
    if seqno_size a b || seqno_size b a then Some seqno_id
    else Some mixed_id

let mul_unit a b =
  match (a, b) with
  | Dimensionless, u | u, Dimensionless -> Ok (Some u)
  | Rate (x, y), Base z when y = z -> Ok (Some (Base x))
  | Base z, Rate (x, y) when y = z -> Ok (Some (Base x))
  | Base x, Base y when is_time x && is_time y ->
    Error (Printf.sprintf "%s x %s (a duration squared)" (base_name x) (base_name y))
  | (Rate _ | Mbps), (Rate _ | Mbps) ->
    Error (Printf.sprintf "%s x %s (a rate times a rate)" (u_name a) (u_name b))
  | _ -> Ok None

let div_unit a b =
  if a = b then Some Dimensionless
  else
    match (a, b) with
    | u, Dimensionless -> Some u
    | Base x, Base y -> Some (Rate (x, y))
    | Base x, Rate (x', y) when x = x' -> Some (Base y)
    | _ -> None

(* Magic constants that re-derive a Units helper: (unit of the scaled
   value, operator, literal) -> (helper name, resulting unit). *)
let conversions =
  [
    (Base Seconds, `Mul, 1_000.0, "sec_to_ms", Base Millis);
    (Base Millis, `Div, 1_000.0, "ms_to_sec", Base Seconds);
    (Base Seconds, `Mul, 1_000_000.0, "sec_to_usec", Base Micros);
    (Base Micros, `Div, 1_000_000.0, "usec_to_sec", Base Seconds);
    (Base Bytes, `Mul, 8.0, "bytes_to_bits", Base Bits);
    (Base Bits, `Div, 8.0, "bits_to_bytes", Base Bytes);
    (Base Bytes, `Div, 1_000_000.0, "bytes_to_mb", Base Megabytes);
    (Base Megabytes, `Mul, 1_000_000.0, "mb_to_bytes", Base Bytes);
    (Base Meters, `Div, 1_000.0, "m_to_km", Base Km);
    (Base Km, `Mul, 1_000.0, "km_to_m", Base Meters);
  ]

let conversion_of u op lit =
  List.find_map
    (fun (cu, cop, clit, helper, res) ->
      if cu = u && cop = op && clit = lit then Some (helper, res) else None)
    conversions

(* ------------------------------------------------------------------ *)
(* The abstract walk *)

type entry = Pvar of int | Vval of value option

type ectx = {
  e_def : def;
  e_env : env;
  e_sum : summary;
  e_emit : (rule:string -> loc:Location.t -> string -> unit) option;
  e_infer : bool;
}

let emit ctx ~rule ~loc msg =
  match ctx.e_emit with Some f -> f ~rule ~loc msg | None -> ()

let rec unwrap (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> unwrap inner
  | _ -> e

let literal_of (e : expression) =
  match (unwrap e).pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> float_of_string_opt s
  | Pexp_constant (Pconst_integer (s, _)) -> (
    match int_of_string_opt s with
    | Some i -> Some (float_of_int i)
    | None -> None)
  | _ -> None

(* The bare variable named by [e], if any (for parameter evidence). *)
let var_of (e : expression) =
  match (unwrap e).pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> Some v
  | _ -> None

(* Record evidence that parameter-valued expression [e] has the unit
   of [expected]: first Known wins, pins never move. *)
let evidence ctx venv (e : expression) (expected : value) =
  if ctx.e_infer then
    match var_of e with
    | None -> ()
    | Some v -> (
      match List.assoc_opt v venv with
      | Some (Pvar i)
        when ctx.e_sum.sm_param.(i) = None && not ctx.e_sum.sm_forced.(i) ->
        let pname =
          match List.nth_opt ctx.e_def.params i with
          | Some p -> p.pname
          | None -> v
        in
        ctx.e_sum.sm_param.(i) <-
          Some
            {
              vu = expected.vu;
              vprov =
                expected.vprov
                @ [ Printf.sprintf "flows into %s %s" ctx.e_def.qname pname ];
            };
        ctx.e_env.changed <- true
      | _ -> ())

let join a b =
  match (a, b) with
  | Some x, Some y when x.vu = y.vu -> Some x
  | _ -> None

let check_mix ctx ~loc ~what (a : value) (b : value) =
  match mix_rule a.vu b.vu with
  | None -> ()
  | Some rule ->
    let detail =
      if rule = seqno_id then
        "an ordinal sequence number is not a size; convert explicitly \
         (offset difference, count x size) or justify with [@leotp.allow \
         \"dim-seqno-arith\"]"
      else
        "convert one side via Leotp_util.Units or justify with \
         [@leotp.allow \"dim-mixed-arith\"]"
    in
    emit ctx ~rule ~loc
      (Printf.sprintf "%s mixes %s with %s; %s; witness: %s vs %s at line %d"
         what (u_name a.vu) (u_name b.vu) detail (describe a) (describe b)
         (line loc))

let pattern_vars (p : pattern) =
  let vars = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_var { txt; _ } -> vars := txt :: !vars
        | Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
        | _ -> ());
        super#pattern p
    end
  in
  it#pattern p;
  List.rev !vars

(* Bind a pattern against the scrutinee's value: a plain variable (and
   a single-argument constructor around one, [Some x]) sees the value;
   every other bound variable shadows to Unknown. *)
let rec bind_pattern (p : pattern) (v : value option) venv =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> (txt, Vval v) :: venv
  | Ppat_alias (inner, { txt; _ }) -> bind_pattern inner v ((txt, Vval v) :: venv)
  | Ppat_constraint (inner, _) -> bind_pattern inner v venv
  | Ppat_construct (_, Some (_, { ppat_desc = Ppat_var { txt; _ }; _ })) ->
    (txt, Vval v) :: venv
  | _ -> List.map (fun n -> (n, Vval None)) (pattern_vars p) @ venv

let add_sub_ops = [ "+."; "-."; "+"; "-" ]
let mul_ops = [ "*."; "*" ]
let div_ops = [ "/."; "/" ]

let cmp_ops =
  [ "<"; "<="; ">"; ">="; "="; "<>"; "=="; "!="; "compare"; "Float.compare";
    "Float.equal"; "Int.compare" ]

let minmax_ops = [ "min"; "max"; "Float.min"; "Float.max"; "Int.min"; "Int.max" ]

let preserve_ops =
  [ "abs_float"; "Float.abs"; "Float.round"; "Float.ceil"; "Float.floor";
    "ceil"; "floor"; "float_of_int"; "Float.of_int"; "int_of_float";
    "Float.to_int"; "truncate"; "abs"; "Int.abs"; "~-"; "~-."; "~+"; "~+.";
    "Stdlib.abs_float" ]

let rec eval ctx venv (e : expression) : value option =
  let natural = eval_desc ctx venv e in
  (* Expression-level pin: [(e [@leotp.dim "seconds"])] asserts and
     forces the unit. *)
  List.fold_left
    (fun v ((payload, aloc) : string * Location.t) ->
      match parse_dim payload with
      | Ok [ CBare u ] ->
        let pinned =
          {
            vu = u;
            vprov =
              [
                Printf.sprintf "[@leotp.dim %S] pin at line %d" payload
                  (line aloc);
              ];
          }
        in
        (match v with
        | Some got when got.vu <> u ->
          check_mix ctx ~loc:e.pexp_loc ~what:"annotated expression" pinned got
        | _ -> ());
        (match v with None -> evidence ctx venv e pinned | Some _ -> ());
        Some pinned
      | Ok _ ->
        emit ctx ~rule:annot_id ~loc:aloc
          (Printf.sprintf
             "[@leotp.dim] on an expression takes a single unit (%s), got %S"
             unit_grammar payload);
        v
      | Error err ->
        emit ctx ~rule:annot_id ~loc:aloc
          (Printf.sprintf "malformed [@leotp.dim] payload %S: %s" payload err);
        v)
    natural
    (payloads dim_attr e.pexp_attributes)

and eval_desc ctx venv (e : expression) : value option =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> (
    match List.assoc_opt v venv with
    | Some (Pvar i) -> ctx.e_sum.sm_param.(i)
    | Some (Vval x) -> x
    | None -> ident_value ctx ~depth:0 v)
  | Pexp_ident { txt; _ } -> ident_value ctx ~depth:0 (ident_name txt)
  | Pexp_constant _ -> None
  | Pexp_let (_, vbs, body) ->
    let venv' =
      List.fold_left
        (fun acc (vb : value_binding) ->
          let v = eval ctx acc vb.pvb_expr in
          bind_pattern vb.pvb_pat v acc)
        venv vbs
    in
    eval ctx venv' body
  | Pexp_sequence (a, b) ->
    ignore (eval ctx venv a);
    eval ctx venv b
  | Pexp_ifthenelse (c, t, f) ->
    ignore (eval ctx venv c);
    let vt = eval ctx venv t in
    let vf = match f with Some f -> eval ctx venv f | None -> None in
    join vt vf
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
    let sv = eval ctx venv scr in
    List.fold_left
      (fun acc (c : case) ->
        let venv' = bind_pattern c.pc_lhs sv venv in
        (match c.pc_guard with
        | Some g -> ignore (eval ctx venv' g)
        | None -> ());
        let v = eval ctx venv' c.pc_rhs in
        if acc = None then v else join acc v)
      None cases
  | Pexp_function (ps, _, fb) ->
    let venv' =
      List.filter_map param_of ps
      |> List.fold_left (fun acc p -> (p.pname, Vval None) :: acc) venv
    in
    (match fb with
    | Pfunction_body b -> ignore (eval ctx venv' b)
    | Pfunction_cases (cs, _, _) ->
      List.iter
        (fun (c : case) ->
          let venv'' = bind_pattern c.pc_lhs None venv' in
          ignore (eval ctx venv'' c.pc_rhs))
        cs);
    None
  | Pexp_apply (f, args) -> eval_apply ctx venv e f args
  | Pexp_construct (_, Some arg) -> (
    match arg.pexp_desc with
    | Pexp_tuple parts ->
      List.iter (fun p -> ignore (eval ctx venv p)) parts;
      None
    | _ -> eval ctx venv arg (* [Some e], [Ok e]: transparent *))
  | Pexp_construct (_, None) -> None
  | Pexp_variant (_, Some arg) -> eval ctx venv arg
  | Pexp_variant (_, None) -> None
  | Pexp_tuple parts ->
    List.iter (fun p -> ignore (eval ctx venv p)) parts;
    None
  | Pexp_record (fields, base) ->
    List.iter (fun (_, v) -> ignore (eval ctx venv v)) fields;
    (match base with Some b -> ignore (eval ctx venv b) | None -> ());
    None
  | Pexp_array parts ->
    List.iter (fun p -> ignore (eval ctx venv p)) parts;
    None
  | Pexp_field (r, _) ->
    ignore (eval ctx venv r);
    None
  | Pexp_setfield (r, _, v) ->
    ignore (eval ctx venv r);
    ignore (eval ctx venv v);
    None
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) | Pexp_lazy inner ->
    eval ctx venv inner
  | Pexp_assert inner ->
    ignore (eval ctx venv inner);
    None
  | Pexp_while (c, b) ->
    ignore (eval ctx venv c);
    ignore (eval ctx venv b);
    None
  | Pexp_for ({ ppat_desc = Ppat_var { txt; _ }; _ }, lo, hi, _, b) ->
    ignore (eval ctx venv lo);
    ignore (eval ctx venv hi);
    ignore (eval ctx ((txt, Vval None) :: venv) b);
    None
  | Pexp_for (_, lo, hi, _, b) ->
    ignore (eval ctx venv lo);
    ignore (eval ctx venv hi);
    ignore (eval ctx venv b);
    None
  | _ -> None

and ident_value ctx ~depth n : value option =
  if depth > 4 then None
  else
    match ident_seed n with
    | Some v -> Some v
    | None ->
      resolve ctx.e_env.defs ~scope:ctx.e_def.scope n
      |> List.find_map (fun (d : def) ->
             match alias d with
             | Some t ->
               ident_value { ctx with e_def = { ctx.e_def with scope = d.scope } }
                 ~depth:(depth + 1) t
             | None ->
               if is_function d.expr then None
               else (ctx.e_env.summary d).sm_ret)

and eval_apply ctx venv (e : expression) (f : expression) args : value option =
  let fname =
    match (unwrap f).pexp_desc with
    | Pexp_ident { txt; _ } -> Some (ident_name txt)
    | _ -> None
  in
  match fname with
  | None ->
    ignore (eval ctx venv f);
    List.iter (fun (_, a) -> ignore (eval ctx venv a)) args;
    None
  | Some n ->
    let exprs = List.map snd args in
    if List.mem n add_sub_ops && List.length exprs = 2 then
      let a = List.nth exprs 0 and b = List.nth exprs 1 in
      eval_add_sub ctx venv e n a b
    else if List.mem n mul_ops && List.length exprs = 2 then
      let a = List.nth exprs 0 and b = List.nth exprs 1 in
      eval_mul ctx venv e a b
    else if List.mem n div_ops && List.length exprs = 2 then
      let a = List.nth exprs 0 and b = List.nth exprs 1 in
      eval_div ctx venv e a b
    else if List.mem n cmp_ops && List.length exprs = 2 then begin
      let a = List.nth exprs 0 and b = List.nth exprs 1 in
      let va = eval ctx venv a and vb = eval ctx venv b in
      (match (va, vb) with
      | Some x, Some y -> check_mix ctx ~loc:e.pexp_loc ~what:"comparison" x y
      | Some x, None -> evidence ctx venv b x
      | None, Some y -> evidence ctx venv a y
      | None, None -> ());
      None
    end
    else if List.mem n minmax_ops && List.length exprs = 2 then begin
      let a = List.nth exprs 0 and b = List.nth exprs 1 in
      let va = eval ctx venv a and vb = eval ctx venv b in
      match (va, vb) with
      | Some x, Some y ->
        check_mix ctx ~loc:e.pexp_loc ~what:n x y;
        Some x
      | Some x, None ->
        evidence ctx venv b x;
        Some x
      | None, Some y ->
        evidence ctx venv a y;
        Some y
      | None, None -> None
    end
    else if List.mem n preserve_ops && List.length exprs = 1 then
      eval ctx venv (List.hd exprs)
    else eval_call ctx venv e n args

and eval_add_sub ctx venv (e : expression) op a b : value option =
  let va = eval ctx venv a and vb = eval ctx venv b in
  match (va, vb) with
  | Some x, Some y ->
    (* seqno - seqno is the one unit-changing subtraction: an offset
       difference is a count of bytes-between, modelled as bytes. *)
    if x.vu = Base Seqno && y.vu = Base Seqno && (op = "-" || op = "-.") then
      Some { vu = Base Packets; vprov = x.vprov @ [ "seqno difference" ] }
    else begin
      check_mix ctx ~loc:e.pexp_loc ~what:(Printf.sprintf "(%s)" op) x y;
      if x.vu = y.vu then Some x else None
    end
  | Some x, None ->
    evidence ctx venv b x;
    Some x
  | None, Some y ->
    evidence ctx venv a y;
    Some y
  | None, None -> None

and eval_mul ctx venv (e : expression) a b : value option =
  let va = eval ctx venv a and vb = eval ctx venv b in
  let conv v lit =
    match v with
    | Some x -> (
      match lit with
      | Some l -> (
        match conversion_of x.vu `Mul l with
        | Some (helper, res) ->
          emit ctx ~rule:conv_id ~loc:e.pexp_loc
            (Printf.sprintf
               "raw unit conversion: %s *. %g re-derives Units.%s; call \
                Leotp_util.Units.%s or justify with [@leotp.allow %S]; \
                witness: %s at line %d"
               (u_name x.vu) l helper helper conv_id (describe x)
               (line e.pexp_loc));
          Some { vu = res; vprov = x.vprov @ [ "converted to " ^ u_name res ] }
        | None -> None)
      | None -> None)
    | _ -> None
  in
  (* a known value scaled by a magic conversion constant, either
     order *)
  match conv va (literal_of b) with
  | Some r -> Some r
  | None -> (
    match conv vb (literal_of a) with
    | Some r -> Some r
    | None -> (
      match (va, vb) with
      | Some x, Some y -> (
        match mul_unit x.vu y.vu with
        | Error what ->
          emit ctx ~rule:product_id ~loc:e.pexp_loc
            (Printf.sprintf
               "suspicious product: %s; no quantity in the protocol has \
                this unit — restructure or justify with [@leotp.allow %S]; \
                witness: %s vs %s at line %d"
               what product_id (describe x) (describe y) (line e.pexp_loc));
          None
        | Ok (Some u) -> Some { vu = u; vprov = x.vprov @ y.vprov }
        | Ok None -> None)
      | Some x, None | None, Some x ->
        (* unknown factor: scalar scaling by assumption *)
        Some x
      | None, None -> None))

and eval_div ctx venv (e : expression) a b : value option =
  let va = eval ctx venv a and vb = eval ctx venv b in
  match (va, literal_of b) with
  | Some x, Some l when conversion_of x.vu `Div l <> None ->
    let helper, res =
      match conversion_of x.vu `Div l with Some hr -> hr | None -> assert false
    in
    emit ctx ~rule:conv_id ~loc:e.pexp_loc
      (Printf.sprintf
         "raw unit conversion: %s /. %g re-derives Units.%s; call \
          Leotp_util.Units.%s or justify with [@leotp.allow %S]; witness: \
          %s at line %d"
         (u_name x.vu) l helper helper conv_id (describe x) (line e.pexp_loc));
    Some { vu = res; vprov = x.vprov @ [ "converted to " ^ u_name res ] }
  | _ -> (
    match (va, vb) with
    | Some x, Some y -> (
      match div_unit x.vu y.vu with
      | Some u -> Some { vu = u; vprov = x.vprov @ y.vprov }
      | None -> None)
    | Some x, None -> Some x (* scalar divisor by assumption *)
    | None, _ -> None)

and eval_call ctx venv (e : expression) n args : value option =
  ignore e;
  let cs = callee_sig ctx.e_env ~depth:0 ~scope:ctx.e_def.scope n in
  let pos = ref 0 in
  List.iter
    (fun ((lbl, a) : arg_label * expression) ->
      let slot =
        match lbl with
        | Labelled s | Optional s -> Lbl s
        | Nolabel ->
          let k = !pos in
          incr pos;
          Pos k
      in
      let va = eval ctx venv a in
      match
        List.find_opt (fun (s, _) -> s = slot) cs.cs_slots
      with
      | None -> ()
      | Some (_, expected) -> (
        match va with
        | None -> evidence ctx venv a expected
        | Some got ->
          check_mix ctx ~loc:a.pexp_loc
            ~what:(Printf.sprintf "argument %s of %s" (slot_desc slot) n)
            expected got))
    args;
  cs.cs_ret

(* ------------------------------------------------------------------ *)
(* Passes *)

let eval_def ctx =
  let venv =
    List.mapi (fun i p -> (p.pname, Pvar i)) ctx.e_def.params
  in
  match ctx.e_def.body with
  | Body e -> eval ctx venv e
  | Cases cs ->
    List.fold_left
      (fun acc (c : case) ->
        let venv' = bind_pattern c.pc_lhs None venv in
        (match c.pc_guard with
        | Some g -> ignore (eval ctx venv' g)
        | None -> ());
        let v = eval ctx venv' c.pc_rhs in
        if acc = None then v else join acc v)
      None cs

let infer_pass env defs =
  List.iter
    (fun (d : def) ->
      if alias d = None then begin
        let sm = env.summary d in
        let ctx =
          { e_def = d; e_env = env; e_sum = sm; e_emit = None; e_infer = true }
        in
        let ret = eval_def ctx in
        match ret with
        | Some v when sm.sm_ret = None && not sm.sm_ret_forced ->
          sm.sm_ret <-
            Some
              { v with vprov = v.vprov @ [ "returned by " ^ d.qname ] };
          env.changed <- true
        | _ -> ()
      end)
    defs

(* Annotation grammar checking, reported once per payload. *)
let report_annotations (d : def) ~emit:emit_at =
  List.iter
    (fun ((payload, aloc) : string * Location.t) ->
      match parse_dim payload with
      | Error err ->
        emit_at ~rule:annot_id ~loc:aloc
          (Printf.sprintf "malformed [@leotp.dim] payload %S: %s" payload err)
      | Ok clauses ->
        List.iter
          (fun cl ->
            match cl with
            | CRet _ -> ()
            | CBare _ ->
              if d.params <> [] then
                emit_at ~rule:annot_id ~loc:aloc
                  (Printf.sprintf
                     "bare unit clause in %S pins a value, but %s has \
                      parameters; name them or use \"returns <unit>\""
                     payload (leaf d.qname))
            | CParams (_, names) ->
              List.iter
                (fun nm ->
                  if
                    not
                      (List.exists
                         (fun p -> p.pname = nm)
                         d.params)
                  then
                    emit_at ~rule:annot_id ~loc:aloc
                      (Printf.sprintf
                         "[@leotp.dim] names parameter %S which %s does not \
                          have"
                         nm (leaf d.qname)))
                names)
          clauses)
    (payloads dim_attr d.attrs)

let report_pass env (d : def) ~emit:emit_at =
  report_annotations d ~emit:emit_at;
  if alias d = None then begin
    let sm = env.summary d in
    let ctx =
      {
        e_def = d;
        e_env = env;
        e_sum = sm;
        e_emit = Some emit_at;
        e_infer = false;
      }
    in
    ignore (eval_def ctx)
  end

(* ------------------------------------------------------------------ *)
(* Entry points *)

let analyze (units : parsed list) : Finding.t list =
  let defs = defs units in
  let env =
    { defs = index Fun.id defs; summary = memo Fun.id new_summary;
      changed = true }
  in
  (* seed-table and annotation pins first, then iterate inference to a
     fixpoint (units only ever go Unknown -> Known) *)
  List.iter (apply_seeds env) defs;
  List.iter (apply_pins env) defs;
  fixpoint (fun () ->
      env.changed <- false;
      infer_pass env defs;
      env.changed);
  let em = emitter units in
  List.iter
    (fun (d : def) ->
      if reportable d.file then
        report_pass env d ~emit:(fun ~rule ~loc message ->
            Callgraph.emit em ~file:d.file ~rule ~loc message))
    defs;
  findings em

let analyze_sources sources = analyze (of_sources sources)
