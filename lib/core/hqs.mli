(** HQS — the paper's solver (Fig. 3): decide a DQBF by eliminating a
    minimum set of universal variables (chosen by partial MaxSAT over the
    dependency graph) until the prefix is linearly orderable, then hand the
    AIG to the QBF back end.

    The main loop interleaves, exactly as in the paper:
    - unit/pure detection on the AIG (Theorems 5-6),
    - elimination of existentials depending on all universals (Theorem 2),
    - elimination of the next queued universal variable (Theorem 1),
      cheapest first (fewest existential copies),
    - FRAIG compaction when the graph grows.

    The expensive accelerators degrade gracefully instead of aborting the
    solve: each fallible stage runs under a child {!Hqs_util.Budget} with
    a declared fallback (MaxSAT minimum set -> greedy set, FRAIG sweep ->
    plain compaction, elimination QBF back end -> QDPLL search on a
    node-limit blowup), and a mid-elimination node-limit memout triggers
    one bounded restart with a degraded config (aggressive sweeping,
    search back end) before [Out_of_memory_budget] is allowed to escape.
    Which degradations fired is recorded in {!stats}. Every fallback path
    can be exercised deterministically through the {!Hqs_util.Chaos}
    injection points ["maxsat.minset"], ["fraig.sweep"], ["fraig.initial"],
    ["qbf.elim"] and ["elim.universal"]. *)

type verdict = Sat | Unsat

type mode =
  | Elimination  (** the paper's strategy: make the prefix QBF-expressible *)
  | Expand_all
      (** the ICCD'13 baseline ([10]): eliminate every universal variable
          and finish with a SAT call *)

type qbf_backend =
  | Elim_backend  (** AIG elimination, the AIGSOLVE role (default) *)
  | Search_backend  (** clause-level QDPLL search, the DepQBF role *)

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;  (** eliminate existentials with full dependency sets *)
  use_maxsat : bool;  (** false: eliminate all difference variables (greedy) *)
  use_fraig : bool;
  fraig_threshold : int;
  use_sat_probe : bool;
      (** one up-front SAT call on the matrix: if the matrix alone is
          unsatisfiable, so is the DQBF (the improvement sketched in the
          paper's Section IV discussion of iDQ's cheap refutations) *)
  node_limit : int option;  (** memout emulation *)
  qbf : Qbf.Solver.config;
  qbf_backend : qbf_backend;
  chaos : Hqs_util.Chaos.t;
      (** deterministic fault injection into the degradation ladder;
          {!Hqs_util.Chaos.off} (the default) never fires *)
  restart_on_memout : bool;
      (** retry the solve once with {!degraded_config} when the AIG node
          limit is hit mid-elimination (heap-governor memouts and second
          failures still escape) *)
  check_level : Check.level;
      (** soundness-auditor depth at every stage boundary (see {!Check}):
          [Off] is free, [Cheap] scans the prefix, [Full] deep-audits the
          AIG manager and certifies Skolem models with an independent SAT
          call. Defaults to [Off]. Violations escape the solve as
          {!Check.Violation}. *)
  dep_scheme : Analysis.Scheme.t;
      (** static dependency scheme applied to the prefixed CNF before
          preprocessing (see {!Analysis.Rp}): [Rp] (the default) prunes
          spurious dependency edges via resolution paths, shrinking the
          MaxSAT elimination sets and sometimes proving the prefix
          already linearly orderable; [Trivial] keeps the prefix as
          written. Defaults to [Rp]. Only [solve_pcnf]/[solve_pcnf_model]
          run the analyzer; the [solve_formula] entry points take the
          prefix as given. *)
}

val default_config : config

val degraded_config : config -> config
(** The bounded-restart config: same limits, aggressive FRAIG sweeping
    ([fraig_threshold <= 1000]) and the QDPLL search back end, which does
    not grow the AIG. *)

val escalated_config : config -> config
(** The re-solve config after a certificate failed its own audit:
    [check_level = Full], chaos {!Hqs_util.Chaos.off} and no degraded
    restart ([restart_on_memout = false]); every other field is kept. *)

type stats = {
  samples : Obs.Metrics.sample list;
      (** the solve's metric scope ({!Obs.Metrics.scoped}), sorted by
          name — the only store of its counts and timings. Counters and
          histogram count/sum are deltas over the solve; gauges and
          histogram min/max are values set during it, so a solve never
          reports a peak of an earlier one. The scope covers the whole
          entry point: analysis, preprocessing, every attempt of the core
          solve (a degraded restart included), the model audit and, for
          {!solve_pcnf_certified}, the certificate. The [hqs.*] series:
          - [hqs.peak_nodes]: the largest AIG seen (gauge);
          - [hqs.maxsat_set]: size of the first elimination set of the
            last attempt (gauge);
          - [hqs.restarts]: degraded restarts taken, 0 or 1;
          - [hqs.unitpure_elims]: variables removed by unit/pure rounds;
          - [hqs.maxsat_time_s], [hqs.unitpure_time_s],
            [hqs.qbf_time_s], [hqs.total_time_s]: timing histograms; the
            count of [hqs.maxsat_time_s] is the number of set
            selections. *)
  peak_nodes : int;  (** [hqs.peak_nodes] of [samples] *)
  degraded : string list;
      (** chronological degradation labels, e.g.
          ["maxsat.minset->greedy[timeout]"; "solve->restart-degraded[node-limit]"];
          empty when every stage ran at full strength *)
  cert_status : string;
      (** certificate outcome of a {!solve_pcnf_certified} run: ["SAT"],
          ["UNSAT"], ["UNCERTIFIED"], or ["-"] when no artifact was
          requested *)
}

val stats_of_samples :
  ?degraded:string list -> ?cert_status:string -> Obs.Metrics.sample list -> stats
(** Rebuild stats from samples, e.g. decoded from another process or
    salvaged from a killed one. [degraded] defaults to [[]],
    [cert_status] to ["-"]. *)

val metric : stats -> string -> float
(** The value of one sample by name; 0 when absent. *)

val solve_formula :
  ?config:config -> ?budget:Hqs_util.Budget.t -> Dqbf.Formula.t -> verdict * stats
(** Decides the DQBF. The input formula is copied, not mutated.
    @raise Hqs_util.Budget.Timeout on deadline.
    @raise Hqs_util.Budget.Out_of_memory_budget when the node limit is hit. *)

val solve_pcnf :
  ?config:config -> ?budget:Hqs_util.Budget.t -> Dqbf.Pcnf.t -> verdict * stats
(** Full pipeline from a prefixed CNF, including CNF preprocessing. *)

val solve_formula_model :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  Dqbf.Formula.t ->
  verdict * Dqbf.Skolem.t option * stats
(** Like {!solve_formula}, additionally reconstructing Skolem functions
    (Definition 2) on a [Sat] verdict. The model covers exactly the
    formula's existential variables and can be checked independently with
    {!Dqbf.Skolem.verify}. *)

val solve_pcnf_model :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  Dqbf.Pcnf.t ->
  verdict * Dqbf.Skolem.t option * stats
(** Like {!solve_pcnf} with Skolem reconstruction; preprocessing steps
    (units, equivalences, gate substitutions) are folded into the model. *)

val solve_pcnf_certified :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  instance_text:string ->
  Dqbf.Pcnf.t ->
  verdict * Cert.t * Dqbf.Skolem.t option * stats
(** Like {!solve_pcnf_model}, additionally materializing an externally
    checkable certificate ({!Cert}): a Skolem-AIG artifact on [Sat], a
    universal-expansion refutation (or an explicit [Uncertified] marker
    past the expansion cap) on [Unsat]. [instance_text] must be the
    exact bytes [pcnf] was parsed from — the artifact embeds their
    fingerprint. The artifact is audited in-process at the configured
    {!Check.level} before being returned; an audit failure raises
    {!Check.Violation} at the [Post_certify] stage, which callers treat
    like a crash (re-solve escalated, evict caches, quarantine). *)

(** {2 Rendering}

    One table maps every reported statistic to its [--stats] key, its
    [hqs_*] CSV column and where its value lives: a sample, a field of
    {!stats}, or a setting of the run's {!config} (the [check-level],
    [dep-scheme] and [inproc] echoes). *)

val pp_stats : config -> Format.formatter -> stats -> unit
(** The [--stats] line: [key=value] pairs separated by spaces, with
    config echoes taken from [config], the config the solve ran under. *)

val stats_cell : config -> stats -> string -> string
(** [stats_cell config stats column] is the cell of one [hqs_*] CSV
    column (e.g. ["hqs_peak_nodes"]).
    @raise Invalid_argument when no statistic has that column. *)
