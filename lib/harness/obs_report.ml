module Obs = Asym_obs
open Asym_core

let span_summary ?(top = 15) () =
  let t =
    Report.create ~title:"Observability: top spans by total simulated time"
      ~header:[ "span"; "count"; "total"; "mean"; "max" ]
      ()
  in
  List.iter
    (fun (r : Obs.Summary.span_row) ->
      Report.add_row t
        [
          r.Obs.Summary.sname;
          string_of_int r.Obs.Summary.count;
          Obs.Summary.format_ns r.Obs.Summary.total_ns;
          Obs.Summary.format_ns (int_of_float r.Obs.Summary.mean_ns);
          Obs.Summary.format_ns r.Obs.Summary.max_ns;
        ])
    (Obs.Summary.spans ~top ());
  let dropped = Obs.Span.dropped () in
  if dropped > 0 then
    Report.note t
      (Printf.sprintf "span ring dropped %d event(s); raise Span.set_capacity for full traces"
         dropped);
  t

(* -- typed counters -------------------------------------------------------- *)

let counters ~clients ~backends =
  let t =
    Report.create ~title:"Counters: typed totals kept by each node"
      ~header:[ "node"; "counter"; "value" ]
      ~notes:[ "counters that stayed at 0 are left out" ]
      ()
  in
  let rows node kvs =
    List.iter (fun (k, v) -> if v <> 0 then Report.add_row t [ node; k; string_of_int v ]) kvs
  in
  List.iter
    (fun c ->
      let hits, misses = Client.cache_stats c in
      rows (Client.name c)
        [
          ("ops", Client.ops_executed c);
          ("rdma verbs", Client.rdma_ops c);
          ("round trips", Asym_rdma.Verbs.round_trips (Client.connection c));
          ("wire bytes", Client.rdma_bytes c);
          ("flushes", Client.flushes c);
          ("cache hits", hits);
          ("cache misses", misses);
          ("read retries", Client.read_retries c);
          ("fault retries", Client.fault_retries c);
          ("reconnects", Client.reconnects c);
          ("lock wait ns", Client.lock_wait_ns c);
        ])
    clients;
  List.iter
    (fun bk ->
      let dev = Backend.device bk in
      rows (Backend.name bk)
        ([
           ("rpcs served", Backend.rpcs_served bk);
           ("replayed txs", Backend.replayed_txs bk);
           ("replayed entries", Backend.replayed_entries bk);
           ("dup replays", Backend.dup_replays_absorbed bk);
           ("nvm reads", Asym_nvm.Device.reads_performed dev);
           ("nvm writes", Asym_nvm.Device.writes_performed dev);
           ("nvm bytes written", Asym_nvm.Device.bytes_written dev);
         ]
        @ List.concat_map
            (fun tl ->
              let n = Asym_sim.Timeline.name tl in
              [
                (n ^ " busy ns", Asym_sim.Timeline.busy_total tl);
                (n ^ " queued ns", Asym_sim.Timeline.queued_total tl);
              ])
            (Backend.timelines bk)))
    backends;
  t
