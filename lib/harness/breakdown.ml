(* Where the time goes: per-configuration latency attribution tables
   built from the cause sink the simulation charges on every clock
   advance, plus per-resource queue-wait/service splits from the
   timelines. Powers `bench breakdown` and `asymnvm profile`. *)

module Obs = Asym_obs
open Asym_sim
module Catalogue = Asym_structs.Catalogue

type cell = { kind : Catalogue.kind; config : string; res : Runner.result }

let attr_ns cell cause =
  match List.assoc_opt cause cell.res.Runner.attr with Some v -> v | None -> 0

let attr_total cell = List.fold_left (fun acc (_, v) -> acc + v) 0 cell.res.Runner.attr

(* One Table-3-style cell with observability forced on, so the measured
   window's attribution is charged. *)
let run_cell ?put_ratio ?mix ~rig ~cfg ~preload ~ops kind =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let res = Runner.run_asym ?put_ratio ?mix ~rig ~cfg ~kind ~preload ~ops () in
      { kind; config = Asym_core.Client.config_name cfg; res })

(* -- tables ------------------------------------------------------------------ *)

let per_op cell ns = float_of_int ns /. float_of_int (max 1 cell.res.Runner.ops)

let table cells =
  let causes =
    (* Only columns some cell actually charged. *)
    List.filter (fun c -> List.exists (fun cl -> attr_ns cl c > 0) cells) Obs.Attr.all
  in
  let t =
    Report.create
      ~title:"Breakdown: where the simulated time goes (us/op and share), YCSB-A mix"
      ~header:
        ([ "Benchmark"; "Config"; "KOPS"; "us/op"; "rt/op" ]
        @ List.map Obs.Attr.name causes)
      ~notes:
        [
          "rt/op counts signaled verbs (round trips paid in client latency); \
           unsignaled posts ride for free";
          "cause columns: share of the operation's virtual time, summing to 100%";
        ]
      ()
  in
  List.iter
    (fun cl ->
      let total = attr_total cl in
      Report.add_row t
        ([
           Catalogue.label cl.kind;
           cl.config;
           Report.kops cl.res.Runner.kops;
           Printf.sprintf "%.2f" (per_op cl total /. 1e3);
           Printf.sprintf "%.1f" (per_op cl cl.res.Runner.round_trips);
         ]
        @ List.map
            (fun c -> Report.pct (float_of_int (attr_ns cl c) /. float_of_int (max 1 total)))
            causes))
    cells;
  (match cells with
  | cl :: _ ->
      let covered = attr_total cl and elapsed = cl.res.Runner.elapsed in
      Report.note t
        (Printf.sprintf "conservation (first cell): %d ns attributed of %d ns elapsed (%s)"
           covered elapsed
           (if covered = elapsed then "exact" else "MISMATCH"))
  | [] -> ());
  t

let resource_table cells =
  let t =
    Report.create ~title:"Breakdown: queue wait vs service per shared resource"
      ~header:[ "Benchmark"; "Config"; "Resource"; "queue us"; "service us"; "queue share" ]
      ~notes:
        [
          "queue = time requests sat waiting for the resource; service = time it worked. \
           A hot back-end NIC shows up here before it shows up in throughput.";
        ]
      ()
  in
  List.iter
    (fun cl ->
      List.iter
        (fun (r, q, s) ->
          Report.add_row t
            [
              Catalogue.label cl.kind;
              cl.config;
              r;
              Printf.sprintf "%.1f" (float_of_int q /. 1e3);
              Printf.sprintf "%.1f" (float_of_int s /. 1e3);
              Report.pct (float_of_int q /. float_of_int (max 1 (q + s)));
            ])
        cl.res.Runner.resources)
    cells;
  t

(* -- verdicts ---------------------------------------------------------------- *)

let find cells kind config =
  List.find_opt (fun cl -> cl.kind = kind && cl.config = config) cells

let checks cells =
  let check cname pass detail =
    { Bench_json.experiment = "breakdown"; cname; pass; detail }
  in
  let conservation =
    Bench_json.every ~experiment:"breakdown" ~cname:"conservation" cells
      ~ok:(fun cl -> attr_total cl = cl.res.Runner.elapsed)
      ~pass:"per-cause ns sum to elapsed virtual time in every cell"
      ~fail:(fun cl ->
        Printf.sprintf "%s/%s: %d ns attributed vs %d elapsed" (Catalogue.label cl.kind)
          cl.config (attr_total cl) cl.res.Runner.elapsed)
  in
  let naive_rtt =
    match find cells Catalogue.Bpt "Naive" with
    | Some cl ->
        let rtt = attr_ns cl Obs.Attr.Rdma_rtt in
        let dominant =
          List.for_all (fun (c, v) -> c = Obs.Attr.Rdma_rtt || v <= rtt) cl.res.Runner.attr
        in
        check "naive_rtt_dominant" dominant
          (Printf.sprintf "naive BPT: rdma_rtt %.0f%% of op time"
             (100. *. float_of_int rtt /. float_of_int (max 1 (attr_total cl))))
    | None -> check "naive_rtt_dominant" false "no naive BPT cell"
  in
  let rcb_shift =
    (* The batched multi-version B+ tree is the paper's batching winner
       (§6.2): the op log amortizes across the vput batch, so the
       majority of its time lands on local compute + media. *)
    match find cells Catalogue.Mv_bpt "RCB" with
    | Some cl ->
        let local = attr_ns cl Obs.Attr.Local_compute + attr_ns cl Obs.Attr.Nvm_media in
        let rtt = attr_ns cl Obs.Attr.Rdma_rtt in
        check "rcb_local_shift" (local > rtt)
          (Printf.sprintf "RCB MV-BPT: local_compute+nvm_media %d ns vs rdma_rtt %d ns" local
             rtt)
    | None -> check "rcb_local_shift" false "no RCB MV-BPT cell"
  in
  let rtt_collapse =
    (* Plain BPT keeps ~1 round trip per op under RCB (the signaled
       op-log append and below-threshold leaf reads), but the absolute
       RTT cost per op must still collapse several-fold vs Naive. *)
    match (find cells Catalogue.Bpt "Naive", find cells Catalogue.Bpt "RCB") with
    | Some n, Some r ->
        let per cl = per_op cl (attr_ns cl Obs.Attr.Rdma_rtt) in
        check "bpt_rtt_collapse"
          (per r < per n /. 3.)
          (Printf.sprintf "BPT rdma_rtt %.0f ns/op Naive -> %.0f ns/op RCB" (per n) (per r))
    | _ -> check "bpt_rtt_collapse" false "missing BPT cells"
  in
  [ conservation; naive_rtt; rcb_shift; rtt_collapse ]

(* The default `bench breakdown` cast: the structures whose Table 3
   movements EXPERIMENTS.md explains by hand today. *)
let default_cells ?(preload = 4000) ?(ops = 4000) () =
  let lat = Latency.default in
  let fifo_rcb =
    { (Asym_core.Client.rcb ()) with Asym_core.Client.oplog_signaled = false }
  in
  (* YCSB-A (50/50, zipf .99) for the key/value structures: the profile a
     structure serves in steady state, and the one EXPERIMENTS.md's drift
     discussion needs — cached reads are where the cache converts round
     trips into local time, writes are where the log batching does. FIFO
     structures keep the 100%-push drive (they have no read mix). *)
  let cell cfg kind =
    let put_ratio = if Catalogue.(family kind <> Map) then 1.0 else 0.5 in
    run_cell ~put_ratio ~mix:(Runner.Ycsb (Asym_workload.Ycsb.Zipfian 0.99))
      ~rig:(Runner.make_rig lat) ~cfg ~preload ~ops kind
  in
  let open Asym_core in
  [
    cell (Client.naive ()) Catalogue.Bpt;
    cell (Client.r ()) Catalogue.Bpt;
    cell (Client.rc ()) Catalogue.Bpt;
    cell (Client.rcb ()) Catalogue.Bpt;
    cell (Client.naive ()) Catalogue.Hash_table;
    cell (Client.rc ()) Catalogue.Hash_table;
    cell (Client.naive ()) Catalogue.Queue;
    cell fifo_rcb Catalogue.Queue;
    cell (Client.naive ()) Catalogue.Mv_bpt;
    cell (Client.rcb ()) Catalogue.Mv_bpt;
  ]
