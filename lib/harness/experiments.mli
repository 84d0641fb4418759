(** Single-client experiments of the paper's evaluation: Tables 2 and 3,
    Figures 6/7/12/13, the §4.4 cache-policy study and the design-choice
    ablations. Each function runs its experiment at the given scale and
    returns a printable report; an experiment with shape verdicts
    returns typed rows instead, from which its [_report] and [_checks]
    functions derive the table and the verdicts. See EXPERIMENTS.md for
    paper-vs-measured commentary. Multi-client experiments live in
    {!Multiclient}. *)

type scale = {
  preload : int;  (** keys loaded before measuring *)
  ops : int;  (** measured operations per cell *)
  subscribers : int;  (** TATP population *)
  accounts : int;  (** SmallBank population *)
}

val quick : scale
val full : scale

val table1 : scale -> Report.t
(** RDMA wire cost per operation: KOPS, verbs/op and payload bytes/op for
    every asymmetric cell of the Table-3 matrix, from the NIC counters
    ({!Asym_rdma.Verbs.ops_posted} / [bytes_on_wire]). *)

val table2 : scale -> Report.t
(** Allocator comparison: Glibc / Pmem / RPC-only / two-tier at 128 B and
    1024 B slabs (§5.2, Table 2). *)

type table3_row = {
  bench : string;  (** structure or application label *)
  symmetric : float option;  (** KOPS per configuration; [None] renders as ["-"] *)
  symmetric_b : float option;
  naive : float option;
  r : float option;
  rc : float option;
  rcb : float option;
}

val table3 : scale -> table3_row list
(** Overall performance: 8 structures + TATP + SmallBank across
    Symmetric, Symmetric-B, Naive, R, RC, RCB (Table 3). Cells the paper
    leaves empty are [None]. *)

val table3_report : table3_row list -> Report.t

val table3_checks : table3_row list -> Bench_json.check list
(** R never loses to Naive (2% slack); some optimized configuration beats
    Naive by 1.5x on every row; MV-BPT's RCB reaches Symmetric (§6.2);
    RC costs at most 15% vs R. *)

val fig6 : scale -> Report.t
(** Throughput vs batch size 1…4096; BST/BPT via sorted vector writes. *)

val fig7 : scale -> Report.t
(** Throughput vs cache size (1/5/10/20% of used NVM). *)

val fig12 : scale -> Report.t
(** Uniform vs Zipf(.5/.9/.99) workloads. *)

val fig13 : scale -> Report.t
(** Industry-trace mixes (power-law keys, 64 B – 8 KB values) across
    Naive / R / RC. *)

type latency_row = {
  kind : Asym_structs.Catalogue.kind;
  config : string;  (** {!Asym_core.Client.config_name} *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

val latency : scale -> latency_row list
(** Extension: per-operation virtual latency (mean/p50/p99) per
    configuration. *)

val latency_report : latency_row list -> Report.t

val latency_checks : latency_row list -> Bench_json.check list
(** RCB's mean latency is below Naive's on every benchmark. *)

val ycsb : scale -> Report.t
(** Extension: the standard YCSB core workloads A/B/C/D/F. *)

type sensitivity_row = { hardware : string; naive_kops : float; rcb_kops : float }

val sensitivity : scale -> sensitivity_row list
(** Extension beyond the paper: sweep the RDMA round trip and the NVM
    media latency, reporting how the RCB/Naive advantage responds. *)

val sensitivity_report : sensitivity_row list -> Report.t

val sensitivity_checks : sensitivity_row list -> Bench_json.check list
(** RCB beats Naive at every hardware point. *)

val cache_policy : scale -> Report.t
(** §4.4: LRU vs RR vs the hybrid choose-set policy. *)

val ablation : scale -> Report.t
(** On/off comparisons of individual design choices: §8.1 annulment, the
    §4.3 wire-pointer optimization, §8.3 level caching, §4.2 transaction
    coalescing. *)
