(* leotp-own: interprocedural packet-ownership, allocation-effect and
   time-taint analysis.

   Three rule families share the Callgraph front end and kernel
   (per-file function defs with parameter lists and bodies, resolved
   across files like Race):

   (a) ownership — every [Packet.t] born at [Packet_pool.acquire] /
       [clone] has exactly one owner.  A fixpoint over the call graph
       infers a role per function parameter: [Consumes] (the callee
       releases it), [Transfers] (the callee hands it to a registered
       sink, stores it, or returns it) or [Borrows] (reads only).
       [[@leotp.owns "consumes p"]] overrides inference.  An abstract
       walk of each body then tracks the owner bit through lets,
       branches (joined by union), loops (iterated twice) and calls,
       and reports: acquire paths on which the packet is still owned at
       the end (own-leak), a second release (own-double-release), any
       use after release (own-use-after-release), and stores into
       long-lived containers that are not registered sinks
       (own-escape).  Constructions that wrap the packet ([Some p],
       tuples) and closures that capture it transfer ownership out of
       the analysis — deferred, not flagged.

   (b) allocation effects — rule 9 only bans two allocation sites by
       name; this generalizes it to inferred may-allocate effects
       (closures, tuples, records, list cells, lazy blocks, known
       allocating stdlib calls, partial application of known functions)
       and walks them from the per-packet hot roots: the engine
       dispatch loop, [Shr.on_packet], [Seg_store]'s rank operations,
       [Pkt_queue] and the packet pool itself, plus literal closures
       handed to [Engine.schedule]/[schedule_at]/[timer]/[handler],
       [Node.set_handler] and [Link.set_sink] inside the datapath
       directories.  Error paths
       ([raise]/[failwith]/[invalid_arg]/[assert]) and debug-guarded
       branches ([if Trace.on () then ...]) are exempt.

   (c) time taint — modules are classified into strata by path: the
       sim-time stratum (everything under lib/ except lib/lint) must
       not reach wall-clock reads ([Unix.gettimeofday], [Sys.time],
       ...), even transitively through harness-stratum helpers.  The
       per-expression no-wall-clock rule already bans direct reads in
       lib/; this adds the interprocedural leg ahead of the real-socket
       backend (ROADMAP item 5).

   Like every leotp-lint pass this is best-effort syntactic analysis:
   aliasing ([let q = p]), packets smuggled through data structures and
   renamed module aliases are invisible; over-approximate name
   resolution can attach a spurious role.  Every finding carries a
   race.ml-style witness path, and the escape hatch is a justified
   [[@leotp.allow "rule-id"]] at the site. *)

open Ppxlib
open Callgraph

let leak_id = "own-leak"
let double_id = "own-double-release"
let uar_id = "own-use-after-release"
let escape_id = "own-escape"
let annot_id = "own-annotation"
let alloc_id = "hot-path-may-alloc"
let taint_id = "time-taint"
let owns_attr = "leotp.owns"

let rules =
  [
    ( leak_id,
      "a packet acquired from Packet_pool.acquire/clone is still owned at \
       the end of some path: release it, hand it to a consuming/transferring \
       callee, or annotate with [@leotp.owns] (interprocedural)" );
    ( double_id,
      "a packet is released (or consumed by a callee) twice, or released \
       after its ownership was transferred; the record would alias two \
       future owners (interprocedural)" );
    ( uar_id,
      "a packet is read or passed on after Packet_pool.release; the record \
       may already be recycled under another owner (interprocedural)" );
    ( escape_id,
      "a packet is stored into a long-lived container (Hashtbl/Queue/array \
       slot/record field) that is not a registered sink; annotate the \
       function with [@leotp.owns \"transfers\"] if the store is a \
       deliberate hand-off (interprocedural)" );
    ( annot_id,
      "a [@leotp.owns] payload does not follow the grammar \
       \"consumes|transfers|borrows [param ...]\" or \"source\", or names a \
       parameter the function does not have" );
    ( alloc_id,
      "a function reachable from the per-packet hot roots (engine dispatch, \
       Shr.on_packet, Seg_store rank operations, the packet pool, datapath \
       timer closures) may allocate: closures, tuples, records, list cells, \
       allocating stdlib calls or partial application (interprocedural)" );
    ( taint_id,
      "sim-time code (lib/ outside lib/lint) reaches a wall-clock read, \
       directly or through harness helpers; route real time through the \
       harness stratum (interprocedural)" );
  ]

(* ------------------------------------------------------------------ *)
(* Builtin knowledge: the packet pool API under both its spellings
   (lib/core aliases [module Pool = Leotp_net.Packet_pool]). *)

let acquire_fns = [ "Packet_pool.acquire"; "Pool.acquire" ]
let clone_fns = [ "Packet_pool.clone"; "Pool.clone" ]
let release_fns = [ "Packet_pool.release"; "Pool.release" ]

(* Callee suffixes that legitimately take ownership of a packet
   argument: the queue stores it (and its drop path releases it), so
   pushing is a registered transfer, not an escape. *)
let transfer_sinks = [ "Pkt_queue.push" ]

let is_acquire = ends_with_any acquire_fns
let is_clone = ends_with_any clone_fns
let is_release = ends_with_any release_fns
let is_transfer_sink = ends_with_any transfer_sinks

(* Long-lived container stores: position of the stored value among the
   arguments. *)
let container_ops =
  [
    ("Hashtbl.add", `Last);
    ("Hashtbl.replace", `Last);
    ("Array.set", `Last);
    ("Array.unsafe_set", `Last);
    ("Queue.push", `First);
    ("Queue.add", `First);
    ("Stack.push", `First);
  ]

let container_op_of n =
  List.find_opt (fun (s, _) -> ends_with_any [ s ] n) container_ops

(* Wall-clock / real-time reads (the taint sources). *)
let wall_clock_fns =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.select";
    "Sys.time";
    "Mtime_clock.now";
    "Mtime_clock.elapsed";
    "Ptime_clock.now";
  ]

let is_wall_clock = ends_with_any wall_clock_fns

(* Per-packet hot roots for the allocation-effect walk. *)
let hot_root_defs =
  [
    "Engine.step";
    "Engine.post";
    "Engine.arm";
    "Engine.arm_at";
    "Shr.on_packet";
    "Seg_store.get";
    "Seg_store.lower_bound";
    "Seg_store.insert";
    "Seg_store.remove";
    "Seg_store.push_back";
    "Pkt_queue.push";
    "Pkt_queue.pop";
    "Packet_pool.acquire";
    "Packet_pool.release";
    "Packet_pool.clone";
  ]

(* Sinks whose literal-closure arguments run on the per-packet path
   (timer bodies, packet handlers).  Only closures in the datapath
   directories become roots: scenario/bench setup code schedules
   closures too, but those run per flow, not per packet. *)
let hot_closure_sinks =
  [
    "Engine.schedule";
    "Engine.schedule_at";
    "Engine.timer";
    "Engine.handler";
    "Node.set_handler";
    "Link.set_sink";
  ]

let is_hot_closure_sink = ends_with_any hot_closure_sinks

(* Sinks that stash their closure argument and run it later: ownership
   of a captured packet genuinely leaves the current activation.  Any
   other callee taking a literal closure is assumed to be a synchronous
   combinator ([List.iter], [Fun.protect], [Array.iter], ...) whose
   closure runs zero or more times right here. *)
let async_capture_sinks =
  hot_closure_sinks
  @ [
      "Domain.spawn";
      "Domain_pool.run";
      "Domain_pool.async";
      "Domain_pool.submit";
      "Thread.create";
    ]

let is_async_capture = ends_with_any async_capture_sinks

let datapath_dirs = [ "core"; "net"; "tcp"; "gateway" ]

let in_datapath path =
  match (place path).lib_dir with
  | Some d -> List.mem d datapath_dirs
  | None -> false

(* Time strata: everything under lib/ except lib/lint is sim-time. *)
let sim_time_stratum path =
  let p = place path in
  p.scope = Lib && p.lib_dir <> Some "lint"

(* Known allocating stdlib calls (suffix-matched).  Combinators that
   only *call* their argument (fold, iter) are absent: a literal
   closure argument is counted as a closure of its own. *)
let allocating_fns =
  [
    "ref";
    "List.map";
    "List.mapi";
    "List.map2";
    "List.filter";
    "List.filter_map";
    "List.concat";
    "List.concat_map";
    "List.append";
    "List.init";
    "List.rev";
    "List.rev_append";
    "List.rev_map";
    "List.sort";
    "List.sort_uniq";
    "List.stable_sort";
    "List.merge";
    "List.split";
    "List.combine";
    "List.of_seq";
    "List.to_seq";
    "Seq.map";
    "Seq.filter";
    "Seq.filter_map";
    "Seq.append";
    "Seq.concat";
    "Seq.unfold";
    "Array.make";
    "Array.init";
    "Array.append";
    "Array.concat";
    "Array.of_list";
    "Array.to_list";
    "Array.copy";
    "Array.sub";
    "Array.map";
    "Array.mapi";
    "Bytes.create";
    "Bytes.make";
    "Bytes.sub";
    "Bytes.of_string";
    "Bytes.to_string";
    "String.concat";
    "String.make";
    "String.init";
    "String.sub";
    "String.map";
    "String.split_on_char";
    "Printf.sprintf";
    "Format.asprintf";
    "Buffer.create";
    "Buffer.contents";
    "Hashtbl.create";
    "Hashtbl.copy";
    "Queue.create";
    "Queue.copy";
    "string_of_int";
    "string_of_float";
    "Float.to_string";
    "Int.to_string";
    "Option.map";
    "Option.bind";
    "Option.to_list";
    "Result.map";
    "Result.bind";
  ]

let is_allocating_call = ends_with_any allocating_fns

(* ------------------------------------------------------------------ *)
(* Ownership roles *)

type role = Borrows | Transfers | Consumes

let role_rank = function Borrows -> 0 | Transfers -> 1 | Consumes -> 2
let join_role a b = if role_rank a >= role_rank b then a else b

(* ------------------------------------------------------------------ *)
(* Defs: function bindings, and the hot closures inside them *)

type odef = {
  def : def;
  refs : (string * Location.t) list;
      (** idents of the body, hot sub-closure ranges excluded *)
  hot_root : bool;
  hot_ranges : (int * int) list;
      (** char ranges of literal closures handed to hot sinks *)
  guards : (int * int) list;
      (** char ranges of debug-gated / error-path subtrees *)
}

let rec pat_typed_packet (p : pattern) =
  match p.ppat_desc with
  | Ppat_constraint (inner, ty) ->
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) ->
      ends_with_any [ "Packet.t" ] (ident_name txt)
    | _ -> false)
    || pat_typed_packet inner
  | _ -> false

let typed_packet (p : param) =
  match p.ppat with Some pat -> pat_typed_packet pat | None -> false

let error_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* A condition that gates tracing/debug-only work: allocations under
   its then-branch do not count against the steady-state hot path. *)
let debug_cond =
  exists_ident (fun n ->
      ends_with_any [ "Trace.on"; "debug_enabled"; "self_check" ] n
      || leaf n = "debug")

(* Collect the raw idents of an expression, the literal closures passed
   to hot sinks (each becomes a synthetic hot-root def), and the char
   ranges of debug-gated / error-path subtrees (calls inside them do
   not count against the steady-state allocation effect). *)
let body_facts (d : def) =
  let guards = ref [] in
  let visit (e : expression) =
    match e.pexp_desc with
    | Pexp_ifthenelse (c, t, _) when debug_cond c ->
      guards := range_of t.pexp_loc :: !guards
    | Pexp_assert inner -> guards := range_of inner.pexp_loc :: !guards
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when ends_with_any error_heads (ident_name txt) ->
      guards := range_of e.pexp_loc :: !guards
    | _ -> ()
  in
  let root = match d.body with Body e -> e | Cases _ -> d.expr in
  let idents, hot_closures =
    scan ~visit ~sinks:hot_closure_sinks ~is_closure:is_function root
  in
  (idents, hot_closures, !guards)

let odefs_of (d : def) : odef list =
  if not (is_function d.expr) then []
  else
    let idents, hot_closures, guards = body_facts d in
    let hot_closures = if in_datapath d.file then hot_closures else [] in
    let hot_ranges =
      List.map (fun (c : expression) -> range_of c.pexp_loc) hot_closures
    in
    {
      def = d;
      refs =
        List.filter
          (fun (_, loc) -> not (List.exists (fun r -> in_range r loc) hot_ranges))
          idents;
      hot_root = ends_with_any hot_root_defs d.qname;
      hot_ranges;
      guards;
    }
    (* Each literal closure handed to a hot sink in the datapath is its
       own allocation-free root. *)
    :: List.map
         (fun (c : expression) ->
           let cd = closure_def d "hot" c in
           let refs, _, guards = body_facts cd in
           { def = cd; refs; hot_root = true; hot_ranges = []; guards })
         hot_closures

(* ------------------------------------------------------------------ *)
(* Summaries and their fixpoint *)

type summary = {
  s_packetish : bool array;
  s_role : role array;
  s_forced : bool array;  (** role pinned by [@leotp.owns] *)
  mutable s_returns_packet : bool;
  mutable s_transfers_ok : bool;
      (** def carries [@leotp.owns "transfers"]: container stores in
          its body are sanctioned hand-offs *)
}

type env = {
  defs : odef index;
  summary : odef -> summary;
  mutable changed : bool;
}

let new_summary (d : odef) =
  let n = List.length d.def.params in
  {
    s_packetish = Array.make n false;
    s_role = Array.make n Borrows;
    s_forced = Array.make n false;
    s_returns_packet = false;
    s_transfers_ok = false;
  }

(* Parsed [@leotp.owns] payload: "role [param ...]"; no params = all. *)
type owns_spec = {
  o_role : role option;  (** [None] for "source" *)
  o_source : bool;
  o_params : string list;
  o_bad : string option;  (** malformed: diagnostic text *)
}

let parse_owns (payload : string) =
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' payload)
  in
  match words with
  | [] ->
    {
      o_role = None;
      o_source = false;
      o_params = [];
      o_bad = Some "empty payload";
    }
  | "source" :: rest ->
    if rest = [] then
      { o_role = None; o_source = true; o_params = []; o_bad = None }
    else
      {
        o_role = None;
        o_source = true;
        o_params = [];
        o_bad = Some "\"source\" takes no parameter names";
      }
  | role_w :: params -> (
    let role =
      match role_w with
      | "consumes" -> Some Consumes
      | "transfers" -> Some Transfers
      | "borrows" -> Some Borrows
      | _ -> None
    in
    match role with
    | None ->
      {
        o_role = None;
        o_source = false;
        o_params = [];
        o_bad =
          Some
            (Printf.sprintf
               "unknown role %S (expected consumes | transfers | borrows | \
                source)"
               role_w);
      }
    | Some r ->
      { o_role = Some r; o_source = false; o_params = params; o_bad = None })

(* Pin annotation-declared roles into a summary. *)
let apply_owns (d : odef) (s : summary) =
  List.iter
    (fun (payload, _) ->
      let spec = parse_owns payload in
      if spec.o_bad = None then begin
        if spec.o_source then s.s_returns_packet <- true;
        match spec.o_role with
        | None -> ()
        | Some r ->
          if r = Transfers then s.s_transfers_ok <- true;
          List.iteri
            (fun i (p : param) ->
              let named =
                spec.o_params = [] || List.mem p.pname spec.o_params
              in
              if named && p.pname <> "_" then begin
                s.s_role.(i) <- r;
                s.s_forced.(i) <- true;
                s.s_packetish.(i) <- true
              end)
            d.def.params
      end)
    (payloads owns_attr d.def.attrs)

(* ------------------------------------------------------------------ *)
(* The ownership walk.

   Abstract state per tracked variable is a bitmask: [owned] (we hold
   the obligation to release), [released] (ownership ended via the
   pool) and [moved] (ownership handed to someone else).  Branches
   join by union, so "released on some path" keeps both bits and the
   end-of-track check can distinguish must-leak from may-leak. *)

let owned = 1
let released = 2
let moved = 4

type shared = {
  sh_var : string;
  mutable sh_rel : (string * Location.t) option;
      (** how/where ownership ended: "released", "consumed by F" *)
  mutable sh_released_ever : bool;
  mutable sh_moved_ever : bool;
  mutable sh_abandoned : bool;  (** shadowed: stop judging this track *)
  mutable sh_packetish : bool;
  mutable sh_trail : (string * Location.t) list;  (** reversed *)
}

type octx = {
  c_def : odef;
  c_env : env;
  c_emit : rule:string -> loc:Location.t -> string -> unit;
}

let trail_push sh desc loc =
  match sh.sh_trail with
  | (d, l) :: _ when d = desc && l = loc -> ()
  | _ -> sh.sh_trail <- (desc, loc) :: sh.sh_trail

let fmt_trail sh ~first ~last =
  String.concat " -> "
    (elide ~max:6 ~head:3 ~tail:2
       ((first :: List.rev_map fst sh.sh_trail) @ [ last ]))

let is_var var (e : expression) =
  let rec go (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident v; _ } -> v = var
    | Pexp_constraint (inner, _) -> go inner
    | _ -> false
  in
  go e

let mentions var = exists_ident (String.equal var)

let pat_binds var (p : pattern) =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern p2 =
        (match p2.ppat_desc with
        | Ppat_var { txt; _ } when txt = var -> found := true
        | _ -> ());
        super#pattern p2
    end
  in
  it#pattern p;
  !found

(* One use of the tracked variable: flag it if ownership already ended
   through the pool. *)
let use_check ctx sh bits (loc : Location.t) =
  if bits land released <> 0 then begin
    let how, rloc =
      match sh.sh_rel with
      | Some (d, l) -> (d, line l)
      | None -> ("released", line loc)
    in
    ctx.c_emit ~rule:uar_id ~loc
      (Printf.sprintf
         "use of %s after it was %s (line %d); the record may already be \
          recycled under another owner; witness: %s"
         sh.sh_var how rloc
         (fmt_trail sh
            ~first:(Printf.sprintf "%s in %s" sh.sh_var ctx.c_def.def.qname)
            ~last:(Printf.sprintf "use at line %d" (line loc))))
  end

let release_event ctx sh bits ~desc (loc : Location.t) =
  (if bits land released <> 0 then
     let how, rloc =
       match sh.sh_rel with
       | Some (d, l) -> (d, line l)
       | None -> ("released", line loc)
     in
     ctx.c_emit ~rule:double_id ~loc
       (Printf.sprintf "double release of %s: already %s (line %d); witness: %s"
          sh.sh_var how rloc
          (fmt_trail sh
             ~first:(Printf.sprintf "%s in %s" sh.sh_var ctx.c_def.def.qname)
             ~last:(Printf.sprintf "%s again at line %d" desc (line loc))))
   else if bits land moved <> 0 then
     ctx.c_emit ~rule:double_id ~loc
       (Printf.sprintf
          "release of %s after its ownership was transferred; the new owner \
           will release it too; witness: %s"
          sh.sh_var
          (fmt_trail sh
             ~first:(Printf.sprintf "%s in %s" sh.sh_var ctx.c_def.def.qname)
             ~last:(Printf.sprintf "%s at line %d" desc (line loc)))));
  if sh.sh_rel = None then sh.sh_rel <- Some (desc, loc);
  sh.sh_released_ever <- true;
  trail_push sh (Printf.sprintf "%s (line %d)" desc (line loc)) loc;
  bits land lnot owned lor released

let move_event sh bits ~desc (loc : Location.t) =
  sh.sh_moved_ever <- true;
  trail_push sh (Printf.sprintf "%s (line %d)" desc (line loc)) loc;
  bits land lnot owned lor moved

let escape_event ctx sh bits ~op (loc : Location.t) =
  let s = ctx.c_env.summary ctx.c_def in
  if not s.s_transfers_ok then
    ctx.c_emit ~rule:escape_id ~loc
      (Printf.sprintf
         "packet %s escapes into a long-lived container (%s) that is not a \
          registered sink; hand it to Pkt_queue.push, annotate the enclosing \
          function with [@leotp.owns \"transfers\"], or justify with \
          [@leotp.allow %S]; witness: %s"
         sh.sh_var op escape_id
         (fmt_trail sh
            ~first:(Printf.sprintf "%s in %s" sh.sh_var ctx.c_def.def.qname)
            ~last:(Printf.sprintf "stored at line %d" (line loc))));
  move_event sh bits ~desc:(Printf.sprintf "stored via %s" op) loc

(* Role of argument [i] of a call to [written]: builtin knowledge
   first, then the resolved summaries (joined). *)
let arg_role ctx ~scope written i =
  if is_release written then Consumes
  else if is_transfer_sink written then Transfers
  else
    let cands = resolve ctx.c_env.defs ~scope written in
    List.fold_left
      (fun acc (d : odef) ->
        let s = ctx.c_env.summary d in
        if i < Array.length s.s_role then join_role acc s.s_role.(i) else acc)
      Borrows cands

let callee_packetish ctx ~scope written i =
  List.exists
    (fun (d : odef) ->
      let s = ctx.c_env.summary d in
      i < Array.length s.s_packetish && s.s_packetish.(i))
    (resolve ctx.c_env.defs ~scope written)

let rec eval ctx sh ~tail bits (e : expression) : int =
  let var = sh.sh_var in
  match e.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } when v = var ->
    use_check ctx sh bits e.pexp_loc;
    if tail then move_event sh bits ~desc:"returned" e.pexp_loc else bits
  | Pexp_ident _ | Pexp_constant _ -> bits
  | Pexp_constraint (inner, _)
  | Pexp_open (_, inner)
  | Pexp_letmodule (_, _, inner)
  | Pexp_letexception (_, inner) ->
    eval ctx sh ~tail bits inner
  | Pexp_sequence (a, b) ->
    let bits = eval ctx sh ~tail:false bits a in
    eval ctx sh ~tail bits b
  | Pexp_let (_, vbs, cont) ->
    let bits =
      List.fold_left
        (fun bits (vb : value_binding) ->
          eval ctx sh ~tail:false bits vb.pvb_expr)
        bits vbs
    in
    if List.exists (fun vb -> pat_binds var vb.pvb_pat) vbs then begin
      (* shadowed: the name no longer denotes this packet *)
      sh.sh_abandoned <- true;
      bits
    end
    else eval ctx sh ~tail bits cont
  | Pexp_ifthenelse (c, t, f) ->
    let bits = eval ctx sh ~tail:false bits c in
    let bt = eval ctx sh ~tail bits t in
    let bf =
      match f with Some f -> eval ctx sh ~tail bits f | None -> bits
    in
    bt lor bf
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let bits = eval ctx sh ~tail:false bits scrut in
    List.fold_left
      (fun acc (c : case) ->
        if pat_binds var c.pc_lhs then acc lor bits
        else begin
          let b =
            match c.pc_guard with
            | Some g -> eval ctx sh ~tail:false bits g
            | None -> bits
          in
          acc lor eval ctx sh ~tail b c.pc_rhs
        end)
      0 cases
  | Pexp_while (c, body) ->
    let b1 = eval ctx sh ~tail:false bits c in
    let b2 = eval ctx sh ~tail:false b1 body in
    (* second iteration from the joined state catches release-in-loop *)
    let b3 = eval ctx sh ~tail:false (b1 lor b2) body in
    b1 lor b2 lor b3
  | Pexp_for (pat, e1, e2, _, body) ->
    let bits = eval ctx sh ~tail:false bits e1 in
    let bits = eval ctx sh ~tail:false bits e2 in
    if pat_binds var pat then bits
    else begin
      let b2 = eval ctx sh ~tail:false bits body in
      let b3 = eval ctx sh ~tail:false (bits lor b2) body in
      bits lor b2 lor b3
    end
  | Pexp_function _ ->
    if mentions var e then begin
      (* Capture by a closure whose call sites we cannot see: judge the
         body once against the current state (catches use-after-release
         inside it), then stop judging — the closure may legitimately
         release the packet later, so neither a leak nor a later
         release can be blamed with confidence. *)
      (let _, fb = peel e in
       match fb with
       | Body b -> ignore (eval ctx sh ~tail:false bits b)
       | Cases cs ->
         List.iter
           (fun (c : case) ->
             if not (pat_binds var c.pc_lhs) then
               ignore (eval ctx sh ~tail:false bits c.pc_rhs))
           cs);
      sh.sh_moved_ever <- true;
      trail_push sh
        (Printf.sprintf "captured by a closure (line %d)" (line e.pexp_loc))
        e.pexp_loc;
      bits land released
    end
    else bits
  | Pexp_apply (head, args) -> eval_apply ctx sh bits head args
  | Pexp_tuple es -> eval_construction ctx sh ~tail bits e.pexp_loc es
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    eval_construction ctx sh ~tail bits e.pexp_loc [ arg ]
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> bits
  | Pexp_record (fields, base) ->
    let es =
      List.map snd fields @ (match base with Some b -> [ b ] | None -> [])
    in
    eval_construction ctx sh ~tail bits e.pexp_loc es
  | Pexp_array es -> eval_construction ctx sh ~tail bits e.pexp_loc es
  | Pexp_field (recv, _) ->
    if is_var var recv then begin
      (* field access is a plain read; it is NOT packet evidence — any
         record parameter reads fields *)
      use_check ctx sh bits recv.pexp_loc;
      bits
    end
    else eval ctx sh ~tail:false bits recv
  | Pexp_setfield (recv, _, rhs) ->
    if is_var var rhs then begin
      use_check ctx sh bits rhs.pexp_loc;
      let bits = eval ctx sh ~tail:false bits recv in
      escape_event ctx sh bits ~op:"record field" rhs.pexp_loc
    end
    else begin
      let bits =
        if is_var var recv then begin
          use_check ctx sh bits recv.pexp_loc;
          bits
        end
        else eval ctx sh ~tail:false bits recv
      in
      eval ctx sh ~tail:false bits rhs
    end
  | Pexp_assert inner | Pexp_lazy inner ->
    eval ctx sh ~tail:false bits inner
  | _ ->
    (* Exotic constructs: every occurrence of the var inside is a
       plain use; state is unchanged. *)
    if mentions var e then use_check ctx sh bits e.pexp_loc;
    bits

(* The packet wrapped into a structure: ownership moves into the
   value.  In tail position that is an ordinary transfer to the
   caller; elsewhere the value may flow anywhere — deferred, the
   container-store and setfield cases catch the long-lived escapes. *)
and eval_construction ctx sh ~tail bits loc es =
  let var = sh.sh_var in
  let bits =
    List.fold_left
      (fun bits sub ->
        if is_var var sub then bits else eval ctx sh ~tail:false bits sub)
      bits es
  in
  if List.exists (is_var var) es then begin
    use_check ctx sh bits loc;
    move_event sh bits
      ~desc:
        (if tail then "returned in a structure" else "packed into a structure")
      loc
  end
  else bits

and eval_apply ctx sh bits head args =
  let var = sh.sh_var in
  let scope = ctx.c_def.def.scope in
  match head.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    let n = ident_name txt in
    let is_closure_capture (a : expression) =
      is_function a && mentions var a
    in
    (* plain arguments evaluate before the call takes effect *)
    let bits =
      List.fold_left
        (fun bits ((_, a) : arg_label * expression) ->
          if is_var var a || is_closure_capture a then bits
          else eval ctx sh ~tail:false bits a)
        bits args
    in
    (* literal closures that capture the tracked variable: a closure
       handed to a scheduling sink outlives this activation (weak
       capture, as in the standalone case); any other callee is
       assumed to be a synchronous combinator whose closure body runs
       zero or more times right here, so it is evaluated inline like a
       loop body. *)
    let eval_closure_body bits (a : expression) =
      let cparams, fb = peel a in
      if List.exists (fun (p : param) -> p.pname = var) cparams then bits
      else
        match fb with
        | Body b -> eval ctx sh ~tail:false bits b
        | Cases cs ->
          List.fold_left
            (fun acc (c : case) ->
              if pat_binds var c.pc_lhs then acc lor bits
              else acc lor eval ctx sh ~tail:false bits c.pc_rhs)
            0 cs
    in
    let bits =
      List.fold_left
        (fun bits ((_, a) : arg_label * expression) ->
          if not (is_closure_capture a) then bits
          else if is_async_capture n then begin
            ignore (eval_closure_body bits a);
            sh.sh_moved_ever <- true;
            trail_push sh
              (Printf.sprintf "captured by a closure handed to %s (line %d)" n
                 (line a.pexp_loc))
              a.pexp_loc;
            bits land released
          end
          else begin
            let b1 = eval_closure_body bits a in
            let b2 = eval_closure_body (bits lor b1) a in
            bits lor b1 lor b2
          end)
        bits args
    in
    let var_positions =
      List.mapi (fun i ((_, a) : arg_label * expression) -> (i, a)) args
      |> List.filter (fun (_, a) -> is_var var a)
    in
    match var_positions with
    | [] -> bits
    | (_, first_arg) :: _ ->
      let aloc = first_arg.pexp_loc in
      if is_release n then release_event ctx sh bits ~desc:"released" aloc
      else if is_clone n then begin
        use_check ctx sh bits aloc;
        sh.sh_packetish <- true;
        trail_push sh (Printf.sprintf "cloned (line %d)" (line aloc)) aloc;
        bits
      end
      else if is_acquire n then bits
      else (
        match container_op_of n with
        | Some (op, pos) ->
          let nargs = List.length args in
          let is_store_pos =
            List.exists
              (fun (i, _) ->
                match pos with `Last -> i = nargs - 1 | `First -> i = 0)
              var_positions
          in
          use_check ctx sh bits aloc;
          if is_store_pos then escape_event ctx sh bits ~op aloc else bits
        | None -> (
          let role =
            List.fold_left
              (fun acc (i, _) -> join_role acc (arg_role ctx ~scope n i))
              Borrows var_positions
          in
          List.iter
            (fun (i, _) ->
              if callee_packetish ctx ~scope n i then sh.sh_packetish <- true)
            var_positions;
          match role with
          | Consumes ->
            release_event ctx sh bits
              ~desc:(Printf.sprintf "consumed by %s" n)
              aloc
          | Transfers ->
            use_check ctx sh bits aloc;
            let forced =
              is_transfer_sink n
              || List.exists
                   (fun (d : odef) ->
                     let s = ctx.c_env.summary d in
                     List.exists
                       (fun (i, _) ->
                         i < Array.length s.s_forced
                         && s.s_forced.(i)
                         && s.s_role.(i) = Transfers)
                       var_positions)
                   (resolve ctx.c_env.defs ~scope n)
            in
            if forced then
              (* programmer-asserted hand-off: arm the
                 release-after-transfer diagnostic *)
              move_event sh bits
                ~desc:(Printf.sprintf "transferred via %s" n)
                aloc
            else begin
              (* inferred hand-off: ownership probably leaves here, but
                 inference is best-effort — drop to unknown rather than
                 blame a later release on it *)
              sh.sh_moved_ever <- true;
              trail_push sh
                (Printf.sprintf "transferred via %s (line %d)" n (line aloc))
                aloc;
              bits land lnot owned
            end
          | Borrows ->
            use_check ctx sh bits aloc;
            trail_push sh
              (Printf.sprintf "borrowed by %s (line %d)" n (line aloc))
              aloc;
            bits)))
  | _ ->
    (* [t.handler p], [(lookup k) p]: the callee is opaque, and packet
       handlers routinely take ownership — weak transfer. *)
    let bits = eval ctx sh ~tail:false bits head in
    List.fold_left
      (fun bits ((_, a) : arg_label * expression) ->
        if is_var var a then begin
          use_check ctx sh bits a.pexp_loc;
          sh.sh_moved_ever <- true;
          trail_push sh
            (Printf.sprintf "passed to a computed function (line %d)"
               (line a.pexp_loc))
            a.pexp_loc;
          bits land lnot owned
        end
        else eval ctx sh ~tail:false bits a)
      bits args

(* ------------------------------------------------------------------ *)
(* Track discovery: every [let p = Packet_pool.acquire ... in] (or
   clone, or a call to an inferred/annotated source) starts an
   ownership track over its continuation. *)

type track = {
  t_var : string;
  t_loc : Location.t;
  t_src : string;
  t_cont : expression;
  t_tail : bool;
}

let source_desc_of env ~scope (e : expression) =
  let rec head (e : expression) =
    match e.pexp_desc with
    | Pexp_constraint (inner, _) -> head inner
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      Some (ident_name txt)
    | _ -> None
  in
  match head e with
  | None -> None
  | Some n ->
    if is_acquire n then Some "Packet_pool.acquire"
    else if is_clone n then Some "Packet_pool.clone"
    else if
      List.exists
        (fun (d : odef) -> (env.summary d).s_returns_packet)
        (resolve env.defs ~scope n)
    then Some (Printf.sprintf "call to %s" n)
    else None

let find_tracks env ~scope (body : fbody) : track list =
  let acc = ref [] in
  let rec go ~tail (e : expression) =
    match e.pexp_desc with
    | Pexp_let (_, vbs, cont) ->
      List.iter
        (fun (vb : value_binding) ->
          go ~tail:false vb.pvb_expr;
          match (binding_name vb, source_desc_of env ~scope vb.pvb_expr) with
          | Some v, Some src ->
            acc :=
              {
                t_var = v;
                t_loc = vb.pvb_expr.pexp_loc;
                t_src = src;
                t_cont = cont;
                t_tail = tail;
              }
              :: !acc
          | _ -> ())
        vbs;
      go ~tail cont
    | Pexp_sequence (a, b) ->
      go ~tail:false a;
      go ~tail b
    | Pexp_ifthenelse (c, t, f) ->
      go ~tail:false c;
      go ~tail t;
      Option.iter (go ~tail) f
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      go ~tail:false scrut;
      List.iter
        (fun (c : case) ->
          Option.iter (go ~tail:false) c.pc_guard;
          go ~tail c.pc_rhs)
        cases
    | Pexp_apply (head, args) ->
      go ~tail:false head;
      List.iter (fun (_, a) -> go ~tail:false a) args
    | Pexp_function (_, _, Pfunction_body b) -> go ~tail:true b
    | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
      List.iter (fun (c : case) -> go ~tail:true c.pc_rhs) cases
    | Pexp_while (c, b) ->
      go ~tail:false c;
      go ~tail:false b
    | Pexp_for (_, e1, e2, _, b) ->
      go ~tail:false e1;
      go ~tail:false e2;
      go ~tail:false b
    | Pexp_constraint (inner, _)
    | Pexp_open (_, inner)
    | Pexp_letmodule (_, _, inner)
    | Pexp_letexception (_, inner)
    | Pexp_assert inner
    | Pexp_lazy inner ->
      go ~tail inner
    | Pexp_tuple es | Pexp_array es -> List.iter (go ~tail:false) es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) ->
      go ~tail:false a
    | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> go ~tail:false v) fields;
      Option.iter (go ~tail:false) base
    | Pexp_field (r, _) -> go ~tail:false r
    | Pexp_setfield (r, _, v) ->
      go ~tail:false r;
      go ~tail:false v
    | _ -> ()
  in
  (match body with
  | Body e -> go ~tail:true e
  | Cases cs -> List.iter (fun (c : case) -> go ~tail:true c.pc_rhs) cs);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Per-def ownership analysis: parameter tracks (role inference and,
   in the reporting phase, misuse findings) and acquire tracks
   (leaks). *)

let eval_body ctx sh ~tail bits (body : fbody) =
  match body with
  | Body e -> eval ctx sh ~tail bits e
  | Cases cs ->
    List.fold_left
      (fun acc (c : case) ->
        if pat_binds sh.sh_var c.pc_lhs then acc lor bits
        else acc lor eval ctx sh ~tail bits c.pc_rhs)
      0 cs

let run_param_track ctx (d : odef) (p : param) =
  let sh =
    {
      sh_var = p.pname;
      sh_rel = None;
      sh_released_ever = false;
      sh_moved_ever = false;
      sh_abandoned = false;
      sh_packetish = typed_packet p;
      sh_trail = [];
    }
  in
  ignore (eval_body ctx sh ~tail:true owned d.def.body);
  sh

let silent_emit ~rule:_ ~loc:_ _ = ()

let infer_pass env (defs : odef list) =
  List.iter
    (fun (d : odef) ->
      let s = env.summary d in
      let ctx = { c_def = d; c_env = env; c_emit = silent_emit } in
      List.iteri
        (fun i (p : param) ->
          if p.pname <> "_" && not s.s_forced.(i) then begin
            let sh = run_param_track ctx d p in
            let role =
              if sh.sh_released_ever then Consumes
              else if sh.sh_moved_ever then Transfers
              else Borrows
            in
            if role_rank role > role_rank s.s_role.(i) then begin
              s.s_role.(i) <- role;
              env.changed <- true
            end;
            if sh.sh_packetish && not s.s_packetish.(i) then begin
              s.s_packetish.(i) <- true;
              env.changed <- true
            end
          end)
        d.def.params;
      (* returns_packet: the tail of the body is a source call or a
         variable bound from one *)
      let rec tail_source bound (e : expression) =
        match e.pexp_desc with
        | Pexp_ident { txt = Lident v; _ } -> List.mem v bound
        | Pexp_constraint (inner, _) | Pexp_open (_, inner) ->
          tail_source bound inner
        | Pexp_sequence (_, b) -> tail_source bound b
        | Pexp_let (_, vbs, cont) ->
          let bound =
            List.fold_left
              (fun bound (vb : value_binding) ->
                match
                  ( binding_name vb,
                    source_desc_of env ~scope:d.def.scope vb.pvb_expr )
                with
                | Some v, Some _ -> v :: bound
                | _ -> bound)
              bound vbs
          in
          tail_source bound cont
        | Pexp_ifthenelse (_, t, f) ->
          tail_source bound t
          || (match f with Some f -> tail_source bound f | None -> false)
        | Pexp_match (_, cases) | Pexp_try (_, cases) ->
          List.exists (fun (c : case) -> tail_source bound c.pc_rhs) cases
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
          let n = ident_name txt in
          is_acquire n || is_clone n
          || List.exists
               (fun (cd : odef) -> (env.summary cd).s_returns_packet)
               (resolve env.defs ~scope:d.def.scope n)
        | _ -> false
      in
      let rp =
        match d.def.body with
        | Body e -> tail_source [] e
        | Cases cs ->
          List.exists (fun (c : case) -> tail_source [] c.pc_rhs) cs
      in
      if rp && not s.s_returns_packet then begin
        s.s_returns_packet <- true;
        env.changed <- true
      end)
    defs

let report_ownership env em (defs : odef list) =
  List.iter
    (fun (d : odef) ->
      let emit ~rule ~loc message =
        emit em ~file:d.def.file ~rule ~loc message
      in
      let ctx = { c_def = d; c_env = env; c_emit = emit } in
      (* malformed annotations *)
      List.iter
        (fun (payload, aloc) ->
          let spec = parse_owns payload in
          (match spec.o_bad with
          | Some why ->
            emit ~rule:annot_id ~loc:aloc
              (Printf.sprintf
                 "malformed [@leotp.owns] payload %S: %s; grammar: \
                  \"consumes|transfers|borrows [param ...]\" or \"source\""
                 payload why)
          | None -> ());
          if spec.o_bad = None then
            List.iter
              (fun pn ->
                if
                  not (List.exists (fun (p : param) -> p.pname = pn) d.def.params)
                then
                  emit ~rule:annot_id ~loc:aloc
                    (Printf.sprintf
                       "[@leotp.owns] names parameter %S but %s has no such \
                        parameter"
                       pn d.def.qname))
              spec.o_params)
        (payloads owns_attr d.def.attrs);
      (* parameter misuse (no leak judgement: the caller owns it).
         Diagnostics are buffered and dropped unless there is positive
         evidence the parameter actually is a packet — a [: Packet.t]
         constraint, an [@leotp.owns] annotation, a pool call on it, or
         propagated callee evidence.  Without the gate, every int that
         is stored into a container would trip the ownership rules. *)
      let s = env.summary d in
      List.iteri
        (fun i (p : param) ->
          if p.pname <> "_" then begin
            let buf = ref [] in
            let bctx =
              {
                c_def = d;
                c_env = env;
                c_emit =
                  (fun ~rule ~loc message ->
                    buf := (rule, loc, message) :: !buf);
              }
            in
            let sh = run_param_track bctx d p in
            let packetish =
              sh.sh_packetish
              || (i < Array.length s.s_packetish && s.s_packetish.(i))
            in
            if packetish then
              List.iter
                (fun (rule, loc, message) -> emit ~rule ~loc message)
                (List.rev !buf)
          end)
        d.def.params;
      (* acquire/source tracks: leaks *)
      List.iter
        (fun (t : track) ->
          let sh =
            {
              sh_var = t.t_var;
              sh_rel = None;
              sh_released_ever = false;
              sh_moved_ever = false;
              sh_abandoned = false;
              sh_packetish = true;
              sh_trail = [];
            }
          in
          let final = eval ctx sh ~tail:t.t_tail owned t.t_cont in
          if (not sh.sh_abandoned) && final land owned <> 0 then
            let some_path = sh.sh_released_ever || sh.sh_moved_ever in
            emit ~rule:leak_id ~loc:t.t_loc
              (Printf.sprintf
                 "packet %s (%s) %s; release it on every path, hand it to a \
                  consuming/transferring callee, or annotate the callee \
                  with [@leotp.owns]; witness: %s"
                 t.t_var t.t_src
                 (if some_path then
                    "is still owned on some path through " ^ d.def.qname
                  else "is never released or handed off in " ^ d.def.qname)
                 (fmt_trail sh
                    ~first:(Printf.sprintf "acquired (line %d)" (line t.t_loc))
                    ~last:(Printf.sprintf "end of %s still owned" d.def.qname))))
        (find_tracks env ~scope:d.def.scope d.def.body))
    defs

(* ------------------------------------------------------------------ *)
(* Allocation effects *)

type alloc_site = { a_loc : Location.t; a_what : string }

(* Collect the may-allocate evidence of one def body.  Hot sub-closure
   bodies are excluded (each is a root of its own), but the closure
   *creation* at the sink call site still counts against the parent. *)
let alloc_sites env (d : odef) : alloc_site list =
  let sites = ref [] in
  let add loc what = sites := { a_loc = loc; a_what = what } :: !sites in
  let rec go (e : expression) =
    match e.pexp_desc with
    | Pexp_function _ ->
      add e.pexp_loc "a closure";
      children e
    | Pexp_tuple _ ->
      add e.pexp_loc "a tuple";
      children e
    | Pexp_record _ ->
      add e.pexp_loc "a record";
      children e
    | Pexp_array _ ->
      add e.pexp_loc "an array literal";
      children e
    | Pexp_lazy _ ->
      add e.pexp_loc "a lazy block";
      children e
    | Pexp_construct ({ txt = Lident "::"; _ }, Some arg) ->
      add e.pexp_loc "a list cell";
      (* walk the spine once: nested cons cells of one literal list
         are a single piece of evidence *)
      spine arg
    | Pexp_ifthenelse (c, t, f) ->
      if debug_cond c then Option.iter go f
      else begin
        go c;
        go t;
        Option.iter go f
      end
    | Pexp_assert _ -> ()
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as head), args)
      -> (
      let n = ident_name txt in
      if ends_with_any error_heads n then ()
      else begin
        if is_allocating_call n then
          add head.pexp_loc (Printf.sprintf "a call to %s" n)
        else begin
          let cands = resolve env.defs ~scope:d.def.scope n in
          let nargs = List.length args in
          if
            cands <> []
            && List.for_all
                 (fun (cd : odef) ->
                   List.length cd.def.params > nargs
                   && not
                        (List.exists
                           (fun (p : param) ->
                             match p.plabel with Optional _ -> true | _ -> false)
                           cd.def.params))
                 cands
          then
            add head.pexp_loc (Printf.sprintf "partial application of %s" n)
        end;
        List.iter
          (fun ((_, a) : arg_label * expression) ->
            if
              is_hot_closure_sink n && is_function a
              && List.exists (fun r -> in_range r a.pexp_loc) d.hot_ranges
            then
              (* the closure record itself is allocated here, per
                 event; its body is audited as a separate root *)
              add a.pexp_loc (Printf.sprintf "a closure handed to %s" n)
            else go a)
          args
      end)
    | _ -> children e
  and spine (arg : expression) =
    match arg.pexp_desc with
    | Pexp_tuple [ hd; tl ] -> (
      go hd;
      match tl.pexp_desc with
      | Pexp_construct ({ txt = Lident "::"; _ }, Some arg') -> spine arg'
      | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> ()
      | _ -> go tl)
    | _ -> go arg
  and children (e : expression) =
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e2 = if e2 == e then super#expression e2 else go e2
      end
    in
    it#expression e
  in
  (match d.def.body with
  | Body e -> go e
  | Cases cs ->
    List.iter
      (fun (c : case) ->
        Option.iter go c.pc_guard;
        go c.pc_rhs)
      cs);
  List.rev !sites

(* Calls into the tracing facility are debug-gated by design
   ([Trace.on] gates the steady state), so they do not count against
   the allocation effect. *)
let is_trace_ref n = List.mem "Trace" (String.split_on_char '.' n)
let is_trace_file path = Filename.basename path = "trace.ml"

(* Refs that count for the effect walk: outside debug-gated / error
   subtrees and not into the tracing facility. *)
let live_refs (d : odef) =
  List.filter
    (fun ((rname, rloc) : string * Location.t) ->
      (not (is_trace_ref rname))
      && not (List.exists (fun r -> in_range r rloc) d.guards))
    d.refs

let report_alloc env em (defs : odef list) =
  (* A site the author has justified with [@leotp.allow] is not
     evidence either: allowing the pool's amortized grow path, say,
     clears every call chain that bottoms out in it. *)
  let sites_of =
    memo (fun d -> d.def) (fun (d : odef) ->
        alloc_sites env d
        |> List.filter (fun (s : alloc_site) ->
               not (suppressed_at em ~file:d.def.file ~rule:alloc_id s.a_loc)))
  in
  (* Transitive may-allocate effect of a def: the first piece of
     allocation evidence (site, file) and the qname chain to it. *)
  let effect_of =
    first_witness (fun d -> d.def)
      ~direct:(fun (d : odef) ->
        if is_trace_file d.def.file then None
        else
          match sites_of d with s :: _ -> Some (s, d.def.file) | [] -> None)
      ~succs:(fun (d : odef) ->
        if is_trace_file d.def.file then []
        else
          List.concat_map
            (fun (rname, _) -> resolve env.defs ~scope:d.def.scope rname)
            (live_refs d))
  in
  let roots =
    List.filter (fun (d : odef) -> d.hot_root) defs
    |> List.sort (fun a b -> compare (key a.def) (key b.def))
  in
  List.iter
    (fun (root : odef) ->
      (* allocations in the root body itself *)
      List.iter
        (fun (s : alloc_site) ->
          emit em ~file:root.def.file ~rule:alloc_id ~loc:s.a_loc
            (Printf.sprintf
               "%s is allocated on the packet hot path; hoist it out of the \
                per-packet flow or justify with [@leotp.allow %S]; witness: \
                %s (%s:%d) -> allocates at line %d"
               s.a_what alloc_id root.def.qname root.def.file (line root.def.loc)
               (line s.a_loc)))
        (sites_of root);
      (* calls from the root body into code with a may-allocate effect:
         one finding at the call site, not one per transitive site *)
      List.iter
        (fun ((rname, rloc) : string * Location.t) ->
          List.iter
            (fun (callee : odef) ->
              if not callee.hot_root then
                match effect_of callee with
                | Some ((s, sfile), chain) ->
                  emit em ~file:root.def.file ~rule:alloc_id ~loc:rloc
                    (Printf.sprintf
                       "call to %s may allocate on the packet hot path (%s \
                        at %s:%d); hoist the allocation, restructure the \
                        call, or justify with [@leotp.allow %S]; witness: \
                        %s (%s:%d) -> %s -> allocates %s at line %d"
                       rname s.a_what sfile (line s.a_loc) alloc_id
                       root.def.qname root.def.file (line root.def.loc)
                       (String.concat " -> " (elide ~max:5 ~head:2 ~tail:1 chain))
                       s.a_what (line s.a_loc))
                | None -> ())
            (resolve env.defs ~scope:root.def.scope rname))
        (live_refs root))
    roots

(* ------------------------------------------------------------------ *)
(* Time taint *)

let report_taint env em (defs : odef list) =
  (* the wall-clock read reached (name, site) and the qname chain *)
  let taint_of =
    first_witness (fun d -> d.def)
      ~direct:(fun (d : odef) ->
        List.find_opt (fun (n, _) -> is_wall_clock n) d.refs)
      ~succs:(fun (d : odef) ->
        List.concat_map
          (fun (rname, _) -> resolve env.defs ~scope:d.def.scope rname)
          d.refs)
  in
  List.iter
    (fun (d : odef) ->
      if sim_time_stratum d.def.file then
        List.iter
          (fun ((rname, rloc) : string * Location.t) ->
            if is_wall_clock rname then
              emit em ~file:d.def.file ~rule:taint_id ~loc:rloc
                (Printf.sprintf
                   "%s reads the wall clock (%s) but lives in the sim-time \
                    stratum; route real time through the harness or justify \
                    with [@leotp.allow %S]; witness: %s -> reads %s at line \
                    %d"
                   d.def.qname rname taint_id d.def.qname rname (line rloc))
            else
              List.iter
                (fun (callee : odef) ->
                  if not (sim_time_stratum callee.def.file) then
                    match taint_of callee with
                    | Some ((read, read_loc), chain) ->
                      emit em ~file:d.def.file ~rule:taint_id ~loc:rloc
                        (Printf.sprintf
                           "sim-time code %s reaches a wall-clock read \
                            through harness code %s; keep real time out of \
                            the protocol core or justify with [@leotp.allow \
                            %S]; witness: %s -> %s -> reads %s at line %d"
                           d.def.qname callee.def.qname taint_id d.def.qname
                           (String.concat " -> " chain) read (line read_loc))
                    | None -> ())
                (resolve env.defs ~scope:d.def.scope rname))
          d.refs)
    defs

(* ------------------------------------------------------------------ *)
(* Entry points *)

let analyze (units : parsed list) : Finding.t list =
  let defs = List.concat_map odefs_of (Callgraph.defs units) in
  let env =
    { defs = index (fun d -> d.def) defs;
      summary = memo (fun d -> d.def) new_summary; changed = true }
  in
  (* seed annotation-declared summaries, then iterate inference to a
     fixpoint (roles and packet evidence only ever grow) *)
  List.iter (fun (d : odef) -> apply_owns d (env.summary d)) defs;
  fixpoint (fun () ->
      env.changed <- false;
      infer_pass env defs;
      env.changed);
  let em = emitter units in
  report_ownership env em defs;
  report_alloc env em defs;
  report_taint env em defs;
  findings em

let analyze_sources sources = analyze (of_sources sources)
