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
    ?(memlog_cap = 8 * 1024 * 1024) lat =
  let bk =
    Backend.create ~name ~max_sessions ~memlog_cap ~oplog_cap:(2 * 1024 * 1024) ~slab_size:4096
      ~capacity lat
  in
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
let value_of key =
  let b = Bytes.make 64 '\000' in
  Bytes.set_int64_le b 0 key;
  b

let preload_instance kind inst ~n =
  if is_seq kind then
    for i = 0 to n - 1 do
      inst.push (value_of (Int64.of_int i))
    done
  else begin
    (* Preload keys spread over the whole measurement key space (stride 4
       over [0, 4n)) and inserted in shuffled order: a dense or ordered
       preload would degenerate the unbalanced BST into a list, and
       measurement-time inserts of fresh keys would all land on one
       spine. *)
    let keys = Array.init n (fun i -> Int64.of_int (4 * i)) in
    Asym_util.Rng.shuffle (Asym_util.Rng.create ~seed:1234L) keys;
    Array.iter (fun key -> inst.put key (value_of key)) keys
  end;
  inst.cleanup ()

let preload rig kind ~name ~n =
  let pre = fresh_client ~name:(name ^ ".preload") rig (Client.rcb ~batch_size:256 ()) in
  preload_instance kind (attach kind pre ~name) ~n

(* -- measured window -------------------------------------------------------- *)

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

let kops ~ops elapsed =
  if elapsed <= 0 then 0.0 else float_of_int ops /. Simtime.to_sec elapsed /. 1000.0

let measure ~clock ~ops f =
  let lats = Array.make (max 1 ops) 0.0 in
  let t0 = Clock.now clock in
  for i = 0 to ops - 1 do
    let s = Clock.now clock in
    f i;
    lats.(i) <- Simtime.to_us (Clock.now clock - s)
  done;
  let elapsed = Clock.now clock - t0 in
  (kops ~ops elapsed, elapsed, lats)

type mix = Ycsb of Asym_workload.Ycsb.distribution | Trace

(* The operation stream of a cell, one call per operation. A YCSB mix
   draws fixed-size values; for key/value structures [put_ratio] selects
   between insert (PUT) and find (GET), for queue/stack between push and
   pop. The Figure-13 trace draws power-law keys and 64 B - 8 KB values. *)
let op_stream mix kind inst ~put_ratio ~keyspace ~seed =
  let rng = Asym_util.Rng.create ~seed in
  match mix with
  | Trace ->
      let tr =
        Asym_workload.Trace.create
          ~kind:(if is_seq kind then `Fifo put_ratio else `Kv put_ratio)
          rng
      in
      fun _ ->
        (match Asym_workload.Trace.next tr with
        | Asym_workload.Trace.Push v -> inst.push v
        | Asym_workload.Trace.Pop -> ignore (inst.pop ())
        | Asym_workload.Trace.Put (k, v) -> inst.put k v
        | Asym_workload.Trace.Get k -> ignore (inst.get k))
  | Ycsb distribution ->
      let gen =
        Asym_workload.Ycsb.create ~value_size:64 ~distribution ~keyspace:(max 1 keyspace)
          ~put_ratio rng
      in
      if is_seq kind then fun i ->
        if Asym_util.Rng.float rng < put_ratio then inst.push (value_of (Int64.of_int i))
        else ignore (inst.pop ())
      else fun _ ->
        if Asym_util.Rng.float rng < put_ratio then begin
          let k = Asym_workload.Ycsb.key gen in
          inst.put k (value_of k)
        end
        else ignore (inst.get (Asym_workload.Ycsb.key gen))

let timeline_totals bk =
  List.map
    (fun tl -> (Timeline.name tl, (Timeline.queued_total tl, Timeline.busy_total tl)))
    (Backend.timelines bk)

(* Measure [ops] calls of [f] on [clock] and sample the typed counters
   around them: on an AsymNVM client [(rig, c)], its read retries, cache
   hits/misses, verbs, wire bytes and round trips, the per-cause
   attribution, and the queue/busy deltas of every back-end timeline
   that moved (all zero or empty on the symmetric baseline). *)
let window ?asym ~clock ~ops f =
  (* [delta get] reads [get c] now; each later call returns the change. *)
  let delta get =
    match asym with
    | None -> fun () -> 0
    | Some (_, c) ->
        let v0 = get c in
        fun () -> get c - v0
  in
  let retries = delta Client.read_retries
  and hits = delta (fun c -> fst (Client.cache_stats c))
  and misses = delta (fun c -> snd (Client.cache_stats c))
  and verbs = delta Client.rdma_ops
  and wire_bytes = delta Client.rdma_bytes
  and round_trips = delta (fun c -> Asym_rdma.Verbs.round_trips (Client.connection c)) in
  let timelines () = match asym with Some (rig, _) -> timeline_totals rig.bk | None -> [] in
  let attr0 = Asym_obs.Attr.snapshot () and tl0 = timelines () in
  let kops, elapsed, lats = measure ~clock ~ops f in
  let resources =
    List.filter_map
      (fun (name, (q, b)) ->
        let q0, b0 = Option.value (List.assoc_opt name tl0) ~default:(0, 0) in
        if q = q0 && b = b0 then None else Some (name, q - q0, b - b0))
      (timelines ())
  in
  {
    kops;
    ops;
    elapsed;
    retries = retries ();
    cache_hits = hits ();
    cache_misses = misses ();
    verbs = verbs ();
    wire_bytes = wire_bytes ();
    lat_mean_us = Asym_util.Stats.mean lats;
    lat_p50_us = Asym_util.Stats.percentile lats 50.0;
    lat_p99_us = Asym_util.Stats.percentile lats 99.0;
    attr = (if Option.is_none asym then [] else Asym_obs.Attr.since attr0);
    round_trips = round_trips ();
    resources = List.sort compare resources;
  }

(* One Table-3-style cell on the AsymNVM architecture: preload through a
   throwaway client, then measure on a fresh client with the target
   configuration (cache sized as a fraction of the NVM in use). *)
let run_asym ?(cache_pct = 0.10) ?(put_ratio = 1.0) ?(mix = Ycsb Asym_workload.Ycsb.Uniform)
    ~rig ~cfg ~kind ~preload:n ~ops () =
  let nm = label kind in
  preload rig kind ~name:nm ~n;
  let c = fresh_client ~name:nm rig (with_cache_pct rig cfg cache_pct) in
  let inst = attach kind c ~name:nm in
  let clock = Client.clock c in
  let stream = op_stream mix kind inst ~put_ratio ~keyspace:(n * 4) in
  (* Warm the cache and the adaptive level threshold before measuring;
     trace cells measure from cold. *)
  if mix <> Trace then ignore (measure ~clock ~ops:(max 256 (ops / 2)) (stream ~seed:100L));
  window ~asym:(rig, c) ~clock ~ops (stream ~seed:(if mix = Trace then 7L else 99L))

(* The same YCSB cell (100% put, uniform keys) on the symmetric baseline. *)
let run_sym ~lat ~cfg ~kind ~preload:n ~ops () =
  let nm = label kind in
  let clock = Clock.create ~name:("sym." ^ nm) () in
  let s = Asym_baseline.Local_store.create ~cfg lat ~clock in
  let inst =
    Cat_local.attach kind ~opts:(ds_opts ~shared:false kind) ~nbuckets ~skip_seed s ~name:nm
  in
  preload_instance kind inst ~n;
  window ~clock ~ops
    (op_stream (Ycsb Asym_workload.Ycsb.Uniform) kind inst ~put_ratio:1.0 ~keyspace:(n * 4)
       ~seed:99L)
