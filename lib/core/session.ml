module Node = Leotp_net.Node
module Packet = Leotp_net.Packet

type t = {
  consumer : Consumer.t;
  producer : Producer.t;
  midnodes : Midnode.t list;
  metrics : Leotp_net.Flow_metrics.t;
}

let attach engine ~config ~consumer_node ~producer_node ~midnodes ~flow
    ?total_bytes ?on_complete () =
  let metrics = Leotp_net.Flow_metrics.create ~flow in
  let consumer =
    Consumer.create engine ~config ~node:consumer_node
      ~producer:(Node.id producer_node) ~flow ?total_bytes ~metrics
      ?on_complete ()
  in
  let producer =
    Producer.create engine ~config ~node:producer_node ~flow ?total_bytes
      ~metrics ()
  in
  (* Endpoints also forward traffic that is not theirs (a node can host
     several flows' endpoints in multi-flow experiments — each flow
     re-installs a handler, so endpoint nodes are one-flow in practice;
     scenarios give each flow its own endpoint nodes). *)
  Node.set_handler consumer_node (fun pkt ->
      if Wire.is_data pkt && pkt.Packet.flow = flow then
        Consumer.handle_packet consumer pkt
      else Node.send consumer_node pkt);
  Node.set_handler producer_node (fun pkt ->
      if Wire.is_interest pkt && pkt.Packet.flow = flow then
        Producer.handle_interest producer pkt
      else Node.send producer_node pkt);
  { consumer; producer; midnodes; metrics }

let over_chain engine ~config ~chain ~flow ?total_bytes ?(coverage = 1.0)
    ?coverage_rng () =
  let nodes = chain.Leotp_net.Topology.nodes in
  let n = Array.length nodes in
  assert (n >= 2);
  let interior = Array.sub nodes 1 (n - 2) in
  let midnodes =
    match config.Config.ablation with
    | Config.No_midnodes -> []
    | _ ->
      (* Pick ceil(coverage * count) interior nodes as Midnodes; with an
         rng the subset is random (paper's partial deployment), otherwise
         evenly spaced. *)
      let count = Array.length interior in
      let wanted =
        int_of_float (Float.round (coverage *. float_of_int count))
      in
      let wanted = max 0 (min count wanted) in
      let chosen =
        if wanted = count then Array.to_list interior
        else begin
          match coverage_rng with
          | Some rng ->
            let idx = Array.init count Fun.id in
            Leotp_util.Rng.shuffle rng idx;
            Array.to_list (Array.map (fun i -> interior.(i)) (Array.sub idx 0 wanted))
          | None ->
            (* Evenly spaced deployment. *)
            List.init wanted (fun k ->
                interior.(k * count / max 1 wanted))
        end
      in
      List.map (fun node -> Midnode.create engine ~config ~node ()) chosen
  in
  attach engine ~config ~consumer_node:nodes.(0) ~producer_node:nodes.(n - 1)
    ~midnodes ~flow ?total_bytes ()

let start t = Consumer.start t.consumer

let stop t = Consumer.stop t.consumer
