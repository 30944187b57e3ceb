(** Analytic performance model of a platform description's clusters.

    Per-core throughput follows a CPI law linear in frequency,

    {v CPI(f) = a + b·f      (f in GHz) v}

    where [a] is the compute CPI and [b·f] the memory-stall CPI (stall
    cycles scale with the clock because DRAM latency is constant in
    seconds).  The host cluster's coefficients are derived per workload
    so that the speedup over its full DVFS range equals the workload's
    [freq_scaling]; every other cluster's law follows its
    [Platform_desc.cpi_law].  Multi-threaded scaling follows Amdahl's
    law with the phase-dependent parallel fraction.

    Frequencies in MHz throughout, matching {!Opp}. *)

val coefficients_for : Workload.t -> Platform_desc.t -> int -> float * float
(** (a, b) of the CPI law for one core of cluster [i] of a platform
    description.  The host cluster is anchored on [base_ipc_big] at
    1 GHz with the workload's [freq_scaling] spanning its own table;
    raises [Invalid_argument] when that range ratio is too narrow to
    represent the measured speedup.  Other clusters share the host's
    memory coefficient [b] (same DRAM) and scale its compute term per
    their [Platform_desc.cpi_law], or carry absolute coefficients. *)

val contention : float
(** Shared-DRAM bandwidth contention: fractional inflation of the
    memory-stall CPI per additional busy core.  The source of the
    per-core cross-coupling that degrades large (10×10) model
    identification (§2.2, Figures 5/15). *)

val contention_factor : busy_cores:float -> float
(** 1 + contention·(busy − 1), clamped at busy ≥ 1. *)

val core_ips :
  ?busy_cores:float ->
  Workload.t ->
  Platform_desc.t ->
  int ->
  freq_mhz:int ->
  float
(** Instructions per second of one fully-busy core of cluster [i] when
    [busy_cores] (default 4) cores compete for memory bandwidth. *)

val max_qos_rate_for : Platform_desc.t -> Workload.t -> float
(** Heartbeats (or frames) per second at the maximum allocation: every
    host core at the host's top OPP, nominal parallel fraction, no
    disturbance. *)

val min_qos_rate_for : Platform_desc.t -> Workload.t -> float
(** Rate at the minimum allocation: one host core at the bottom OPP. *)
