type params = {
  theta : float;
  a : float;
  b : float;
  packet_size_bits : float;
}

let default = { theta = 25.; a = 100.; b = 1.; packet_size_bits = 8000. }

let[@inline] link_delay p ~capacity ~phi_h ~prop_delay =
  if capacity <= 0. then invalid_arg "Sla.link_delay: non-positive capacity";
  (* capacity is in Mbps: s/C seconds = s / (C * 1e6); in ms multiply
     by 1e3, i.e. divide by (C * 1e3). *)
  let transmission_ms = p.packet_size_bits /. (capacity *. 1000.) in
  (transmission_ms *. ((phi_h /. capacity) +. 1.)) +. prop_delay

let[@inline] penalty p ~delay =
  if delay <= p.theta then 0. else p.a +. (p.b *. (delay -. p.theta))

let[@inline] violated p ~delay = delay > p.theta

let with_relaxed_bound p ~epsilon =
  if epsilon < 0. then invalid_arg "Sla.with_relaxed_bound: negative epsilon";
  { p with theta = p.theta *. (1. +. epsilon) }
