type flow_spec = { flow : int; ingress : int; egress : int }

let hops fs = fs.egress - fs.ingress

let figure1_n_switches = 5

(* Path layout solving the paper's constraints: every inter-switch link
   carries 10 flows; 12/4/4/2 flows of length 1/2/3/4. *)
let figure1_flows =
  let f flow ingress egress = { flow; ingress; egress } in
  [
    (* length 4 *)
    f 0 0 4;
    f 1 0 4;
    (* length 3 *)
    f 2 0 3;
    f 3 0 3;
    f 4 1 4;
    f 5 1 4;
    (* length 2 *)
    f 6 0 2;
    f 7 0 2;
    f 8 2 4;
    f 9 2 4;
    (* length 1 *)
    f 10 0 1;
    f 11 0 1;
    f 12 0 1;
    f 13 0 1;
    f 14 1 2;
    f 15 1 2;
    f 16 2 3;
    f 17 2 3;
    f 18 3 4;
    f 19 3 4;
    f 20 3 4;
    f 21 3 4;
  ]

let flows_on_link i =
  List.filter (fun fs -> fs.ingress <= i && i < fs.egress) figure1_flows

type t = {
  n_switches : int;
  links : (int * int) list;
  flows : flow_spec list;
  avg_rate_pps : float;
}

let default_avg_rate_pps = 85.

let chain ~n_switches flows avg_rate_pps =
  {
    n_switches;
    links = List.init (n_switches - 1) (fun i -> (i, i + 1));
    flows;
    avg_rate_pps;
  }

let figure1 ?(avg_rate_pps = default_avg_rate_pps) () =
  chain ~n_switches:figure1_n_switches figure1_flows avg_rate_pps

let single_link ?(avg_rate_pps = default_avg_rate_pps) () =
  chain ~n_switches:2
    (List.init 10 (fun flow -> { flow; ingress = 0; egress = 1 }))
    avg_rate_pps

type service_class =
  | Guaranteed_peak
  | Guaranteed_avg
  | Predicted_high
  | Predicted_low

(* Class assignment consistent with the per-link mix (2 GP / 1 GA / 3 PH /
   4 PL) and Table 3's sample path lengths; derivation in DESIGN.md. *)
let table3_class_of = function
  | 0 -> Guaranteed_peak (* length 4 *)
  | 1 -> Predicted_high (* length 4 *)
  | 2 -> Guaranteed_avg (* length 3, links 1-3 *)
  | 3 -> Predicted_low (* length 3 *)
  | 4 | 5 -> Predicted_low (* length 3, links 2-4 *)
  | 6 -> Guaranteed_peak (* length 2, links 1-2 *)
  | 7 -> Predicted_high (* length 2, links 1-2 *)
  | 8 -> Guaranteed_peak (* length 2, links 3-4 *)
  | 9 -> Predicted_high (* length 2, links 3-4 *)
  | 10 -> Predicted_high (* link 1 *)
  | 11 | 12 | 13 -> Predicted_low (* link 1 *)
  | 14 -> Predicted_high (* link 2 *)
  | 15 -> Predicted_low (* link 2 *)
  | 16 -> Predicted_high (* link 3 *)
  | 17 -> Predicted_low (* link 3 *)
  | 18 -> Guaranteed_avg (* link 4 *)
  | 19 -> Predicted_high (* link 4 *)
  | 20 | 21 -> Predicted_low (* link 4 *)
  | n -> invalid_arg (Printf.sprintf "Scenario.table3_class_of: flow %d" n)

let table3_sample_flows =
  [
    ("Peak", 0);
    ("Peak", 6);
    ("Average", 2);
    ("Average", 18);
    ("High", 1);
    ("High", 7);
    ("Low", 3);
    ("Low", 11);
  ]

let table3_tcp_paths = [ (0, 2); (2, 4) ]
let token_bucket_depth_packets = 50.
