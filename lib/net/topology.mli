(** Topology builders: wiring nodes and duplex links.

    A "hop" is a duplex link pair; both directions get the same
    bandwidth — the paper's scenarios are single-direction bulk
    transfers, with the reverse path carrying only Interests / ACKs. *)

type hop_spec = {
  bandwidth : Bandwidth.t;  (** each direction *)
  delay : float;  (** one-way propagation, seconds *)
  plr : float;
  buffer_bytes : int;
}

val hop :
  ?plr:float ->
  ?buffer_bytes:int ->
  bandwidth:Bandwidth.t ->
  delay:float ->
  unit ->
  hop_spec
(** Defaults: no loss, a 256 KB drop-tail buffer per direction. *)

type duplex = { fwd : Link.t; rev : Link.t }

val connect :
  Leotp_sim.Engine.t ->
  rng:Leotp_util.Rng.t ->
  Node.t ->
  Node.t ->
  hop_spec ->
  duplex
(** Create the duplex link and wire delivery to both nodes ({i without}
    touching routing tables). *)

type chain = {
  nodes : Node.t array;  (** length n+1 for n hops; [nodes.(0)] is the data
                             receiver side in LEOTP scenarios *)
  hops : duplex array;  (** [hops.(i)] joins [nodes.(i)] and [nodes.(i+1)] *)
}

val chain :
  Leotp_sim.Engine.t -> rng:Leotp_util.Rng.t -> hop_spec array -> chain
(** Build a linear chain with full routing: every node can reach every
    other node along the line. *)

type dumbbell = {
  senders : Node.t array;
  receivers : Node.t array;
  left : Node.t;  (** aggregation router on the sender side *)
  right : Node.t;
  bottleneck : duplex;
  sender_links : duplex array;
  receiver_links : duplex array;
}

val dumbbell :
  Leotp_sim.Engine.t ->
  rng:Leotp_util.Rng.t ->
  access:hop_spec array ->
  bottleneck:hop_spec ->
  dumbbell
(** [access.(i)] is used for {i both} sender i's and receiver i's access
    links (so per-flow RTT = 2*access delay + bottleneck delay, letting
    scenarios give flows different RTTs as in Fig 15).  Routing is set up
    so sender i reaches receiver i and vice versa. *)
