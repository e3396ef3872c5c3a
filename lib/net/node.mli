(** Network nodes.

    A node owns a routing table (destination node id -> egress link) and a
    packet handler.  The default handler forwards toward the packet's
    destination; transport protocols (TCP endpoints, LEOTP Consumer /
    Midnode / Producer) replace the handler with their own logic and call
    {!send} to hand packets back to the network. *)

type t

val create : name:string -> t
(** Node ids are assigned from a domain-local counter; {!reset_ids}
    restarts it between experiments so ids stay small and deterministic,
    including when independent experiments run on parallel domains. *)

val reset_ids : unit -> unit
val id : t -> int
val name : t -> string

val add_route : t -> dst:int -> Link.t -> unit

val remove_route : t -> dst:int -> unit
(** Drop the route toward [dst] (no-op when absent).  Flow retirement uses
    this to unwire per-flow entries from shared gateway nodes; packets
    still in flight toward [dst] then die as {!no_route_drops}. *)

val clear_routes : t -> unit

val set_handler : t -> (Packet.t -> unit) -> unit
(** Replace the handler; the default one {!send}s every packet onward. *)

val receive : t -> Packet.t -> unit
(** Hand a delivered packet to the node's handler. *)

val send : t -> Packet.t -> unit
(** Route by [pkt.dst] and transmit.  Packets with no route are counted in
    {!no_route_drops} and dropped (happens transiently during rerouting). *)

val no_route_drops : t -> int
