(** Shared machinery for the experiment harness: rig construction, the
    harness's attachment of catalogue structures, and single-client
    throughput runs. *)

open Asym_sim
open Asym_core
open Asym_structs
open Catalogue
module Cat_client = Catalogue.Make (Client)
module Cat_local = Catalogue.Make (Asym_baseline.Local_store)

(* [locked] selects lock-based operation: in the paper's evaluation the
   ordered index structures (SkipList/BST/BPT and TATP's trees) take the
   exclusive writer lock per operation; queue/stack/hash run single-writer
   without it; the MV structures synchronize via the root CAS. *)
let ds_opts ~shared kind : Ds_intf.options =
  match kind with
  | Skip_list | Bst | Bpt ->
      if shared then Ds_intf.shared_options else Ds_intf.locked_options
  | Queue | Stack | Hash_table | Mv_bst | Mv_bpt ->
      if shared then { Ds_intf.shared = true; use_lock = false } else Ds_intf.default_options

(* The harness's instance parameters: a 16384-bucket hash table and the
   skip list's own default tower seed. *)
let nbuckets = 16384
let skip_seed = 4242L

let attach ?(shared = false) kind c ~name =
  Cat_client.attach kind ~opts:(ds_opts ~shared kind) ~nbuckets ~skip_seed c ~name

let is_seq kind = family kind <> Map

(* -- rig ---------------------------------------------------------------- *)

type rig = { bk : Backend.t; lat : Latency.t }

let make_rig ?(name = "bk") ?(capacity = 192 * 1024 * 1024) ?(max_sessions = 8)
    ?(memlog_cap = 8 * 1024 * 1024) ?(mirrors = 0) lat =
  let bk =
    Backend.create ~name ~max_sessions ~memlog_cap ~oplog_cap:(2 * 1024 * 1024) ~slab_size:4096
      ~capacity lat
  in
  for i = 1 to mirrors do
    Backend.attach_mirror bk
      (Mirror.create
         ~name:(Printf.sprintf "%s.m%d" name i)
         ~kind:(if i = 1 then Mirror.Nvm_backed else Mirror.Ssd_backed)
         ~capacity lat)
  done;
  { bk; lat }

(* A client whose clock starts at the back-end's current horizon, so it
   does not queue behind hours of preload traffic. *)
let fresh_client ?(name = "fe") rig cfg =
  let clk = Clock.create ~name () in
  Clock.wait_until clk (Timeline.free_at (Backend.nic rig.bk));
  Clock.wait_until clk (Timeline.free_at (Backend.cpu rig.bk));
  Client.connect ~name cfg rig.bk ~clock:clk

(* The paper sizes the front-end cache as a fraction of the NVM actually
   used by the structure (10% in Table 3). *)
let used_bytes rig =
  Backend.used_slabs rig.bk * (Backend.layout rig.bk).Layout.slab_size

let with_cache_pct rig (cfg : Client.config) pct =
  if not cfg.Client.use_cache then cfg
  else
    let bytes = max (8 * 1024) (int_of_float (float_of_int (used_bytes rig) *. pct)) in
    { cfg with Client.cache_bytes = bytes }

(* -- preload -------------------------------------------------------------- *)

(* Zero-filled, not [Bytes.create]: uninitialized payload bytes made the
   stored media image (and every CRC over it) differ run to run, so a
   value written and rebuilt for comparison never matched. *)
let value_of ?(size = 64) key =
  let b = Bytes.make size '\000' in
  Bytes.set_int64_le b 0 key;
  b

let preload_instance inst ~fifo ~n ~value_size =
  if fifo then
    for i = 0 to n - 1 do
      inst.push (value_of ~size:value_size (Int64.of_int i))
    done
  else begin
    (* Preload keys spread over the whole measurement key space (stride 4
       over [0, 4n)) and inserted in shuffled order: a dense or ordered
       preload would degenerate the unbalanced BST into a list, and
       measurement-time inserts of fresh keys would all land on one
       spine. *)
    let keys = Array.init n (fun i -> Int64.of_int (4 * i)) in
    Asym_util.Rng.shuffle (Asym_util.Rng.create ~seed:1234L) keys;
    Array.iter (fun key -> inst.put key (value_of ~size:value_size key)) keys
  end;
  inst.cleanup ()

(* -- single-client measured run ------------------------------------------- *)

type result = {
  kops : float;
  ops : int;
  elapsed : Simtime.t;
  retries : int;
  cache_hits : int;
  cache_misses : int;
  verbs : int;  (* RDMA verbs posted during the measured window *)
  wire_bytes : int;  (* payload bytes those verbs moved *)
  lat_mean_us : float;
  lat_p50_us : float;
  lat_p99_us : float;
  attr : (Asym_obs.Attr.cause * int) list;
  round_trips : int;
  resources : (string * int * int) list;
}

let measure ~clock ~ops f =
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    f i
  done;
  let elapsed = Clock.now clock - t0 in
  let kops =
    if elapsed = 0 then 0.0 else float_of_int ops /. Simtime.to_sec elapsed /. 1000.0
  in
  (kops, elapsed)

(* Like {!measure} but also records each operation's virtual latency. *)
let measure_latencies ~clock ~ops f =
  let lats = Array.make (max 1 ops) 0.0 in
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    let s = Clock.now clock in
    f i;
    lats.(i) <- Simtime.to_us (Clock.now clock - s)
  done;
  let elapsed = Clock.now clock - t0 in
  let kops =
    if elapsed = 0 then 0.0 else float_of_int ops /. Simtime.to_sec elapsed /. 1000.0
  in
  (kops, elapsed, lats)

(* One operation against the facade. For key/value structures [put_ratio]
   selects between insert (PUT) and find (GET); for queue/stack it selects
   between push and pop. *)
let one_op inst ~fifo ~value_size ~put_ratio ~rng gen i =
  if fifo then begin
    if Asym_util.Rng.float rng < put_ratio then
      inst.push (value_of ~size:value_size (Int64.of_int i))
    else ignore (inst.pop ())
  end
  else if Asym_util.Rng.float rng < put_ratio then begin
    let k = Asym_workload.Ycsb.key gen in
    inst.put k (value_of ~size:value_size k)
  end
  else ignore (inst.get (Asym_workload.Ycsb.key gen))

(* Run [ops] operations of the given mix on an already attached instance,
   measuring virtual-time throughput on [clock]. *)
let drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace ~ops ~seed inst =
  let rng = Asym_util.Rng.create ~seed in
  let gen =
    Asym_workload.Ycsb.create ~value_size ~distribution:dist ~keyspace:(max 1 keyspace)
      ~put_ratio rng
  in
  measure_latencies ~clock ~ops (fun i -> one_op inst ~fifo ~value_size ~put_ratio ~rng gen i)

let timeline_totals bk =
  List.map
    (fun tl -> (Timeline.name tl, (Timeline.queued_total tl, Timeline.busy_total tl)))
    (Backend.timelines bk)

(* Run [f] as client [c]'s measured window and sample the typed counters
   around it: per-cause attribution, the connection's round trips, and
   the queue/busy deltas of every back-end timeline that moved. *)
let window rig c f =
  let attr0 = Asym_obs.Attr.snapshot () in
  let rtts0 = Asym_rdma.Verbs.round_trips (Client.connection c) in
  let tl0 = timeline_totals rig.bk in
  let x = f () in
  let resources =
    List.filter_map
      (fun (name, (q, b)) ->
        let q0, b0 = Option.value (List.assoc_opt name tl0) ~default:(0, 0) in
        if q = q0 && b = b0 then None else Some (name, q - q0, b - b0))
      (timeline_totals rig.bk)
  in
  ( x,
    Asym_obs.Attr.since attr0,
    Asym_rdma.Verbs.round_trips (Client.connection c) - rtts0,
    List.sort compare resources )

(* One Table-3-style cell on the AsymNVM architecture: preload through a
   throwaway client, then measure on a fresh client with the target
   configuration (cache sized as a fraction of the NVM in use). *)
let run_asym ?(shared = false) ?(value_size = 64) ?(cache_pct = 0.10) ?(put_ratio = 1.0)
    ?(dist = Asym_workload.Ycsb.Uniform) ?(seed = 99L) ?warmup ~rig ~cfg ~kind ~preload ~ops
    () =
  let fifo = is_seq kind in
  let nm = label kind in
  let pre = fresh_client ~name:(nm ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  let pinst = attach kind pre ~name:nm in
  preload_instance pinst ~fifo ~n:preload ~value_size;
  let cfg = with_cache_pct rig cfg cache_pct in
  let c = fresh_client ~name:nm rig cfg in
  let inst = attach ~shared kind c ~name:nm in
  let clock = Client.clock c in
  (* Warm the cache and the adaptive level threshold before measuring. *)
  let warmup = match warmup with Some w -> w | None -> max 256 (ops / 2) in
  let _ =
    drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops:warmup
      ~seed:(Int64.add seed 1L) inst
  in
  let retries0 = Client.read_retries c in
  let hits0, misses0 = Client.cache_stats c in
  let verbs0 = Client.rdma_ops c and bytes0 = Client.rdma_bytes c in
  let (kops, elapsed, lats), attr, round_trips, resources =
    window rig c (fun () ->
        drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops ~seed inst)
  in
  let hits1, misses1 = Client.cache_stats c in
  {
    kops;
    ops;
    elapsed;
    retries = Client.read_retries c - retries0;
    cache_hits = hits1 - hits0;
    cache_misses = misses1 - misses0;
    verbs = Client.rdma_ops c - verbs0;
    wire_bytes = Client.rdma_bytes c - bytes0;
    lat_mean_us = Asym_util.Stats.mean lats;
    lat_p50_us = Asym_util.Stats.percentile lats 50.0;
    lat_p99_us = Asym_util.Stats.percentile lats 99.0;
    attr;
    round_trips;
    resources;
  }

(* A Figure-13 style run: the synthetic industry trace (power-law keys,
   64 B - 8 KB values) instead of the fixed-size YCSB generator. *)
let run_asym_trace ?(cache_pct = 0.10) ?(seed = 7L) ~rig ~cfg ~kind ~preload ~ops ~put_ratio ()
    =
  let fifo = is_seq kind in
  let nm = label kind in
  let pre = fresh_client ~name:(nm ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  let pinst = attach kind pre ~name:nm in
  preload_instance pinst ~fifo ~n:preload ~value_size:64;
  let cfg = with_cache_pct rig cfg cache_pct in
  let c = fresh_client ~name:nm rig cfg in
  let inst = attach kind c ~name:nm in
  let verbs0 = Client.rdma_ops c and bytes0 = Client.rdma_bytes c in
  let rng = Asym_util.Rng.create ~seed in
  let tr =
    Asym_workload.Trace.create
      ~kind:(if fifo then `Fifo put_ratio else `Kv put_ratio)
      rng
  in
  let clock = Client.clock c in
  let (kops, elapsed, lats), attr, round_trips, resources =
    window rig c (fun () ->
        measure_latencies ~clock ~ops (fun _ ->
            match Asym_workload.Trace.next tr with
            | Asym_workload.Trace.Push v -> inst.push v
            | Asym_workload.Trace.Pop -> ignore (inst.pop ())
            | Asym_workload.Trace.Put (k, v) -> inst.put k v
            | Asym_workload.Trace.Get k -> ignore (inst.get k)))
  in
  {
    kops;
    ops;
    elapsed;
    retries = 0;
    cache_hits = 0;
    cache_misses = 0;
    verbs = Client.rdma_ops c - verbs0;
    wire_bytes = Client.rdma_bytes c - bytes0;
    lat_mean_us = Asym_util.Stats.mean lats;
    lat_p50_us = Asym_util.Stats.percentile lats 50.0;
    lat_p99_us = Asym_util.Stats.percentile lats 99.0;
    attr;
    round_trips;
    resources;
  }

(* The same cell on the symmetric baseline. *)
let run_sym ?(value_size = 64) ?(put_ratio = 1.0) ?(dist = Asym_workload.Ycsb.Uniform)
    ?(seed = 99L) ~lat ~cfg ~kind ~preload ~ops () =
  let fifo = is_seq kind in
  let nm = label kind in
  let clock = Clock.create ~name:("sym." ^ nm) () in
  let s = Asym_baseline.Local_store.create ~cfg lat ~clock in
  let inst =
    Cat_local.attach kind ~opts:(ds_opts ~shared:false kind) ~nbuckets ~skip_seed s ~name:nm
  in
  preload_instance inst ~fifo ~n:preload ~value_size;
  let kops, elapsed, lats =
    drive ~clock ~fifo ~value_size ~put_ratio ~dist ~keyspace:(preload * 4) ~ops ~seed inst
  in
  {
    kops;
    ops;
    elapsed;
    retries = 0;
    cache_hits = 0;
    cache_misses = 0;
    verbs = 0;
    wire_bytes = 0;
    lat_mean_us = Asym_util.Stats.mean lats;
    lat_p50_us = Asym_util.Stats.percentile lats 50.0;
    lat_p99_us = Asym_util.Stats.percentile lats 99.0;
    attr = [];
    round_trips = 0;
    resources = [];
  }
