(** CNF-level preprocessing (Section III-C of the paper), applied before
    the AIG is built. The first three rules below are the {!Inproc}
    engine's, run to its fixpoint at the strength [config.inproc] selects
    ([Off] enables none of them):

    - unit literal propagation (universal unit literals refute the formula);
    - generalized universal reduction: a universal literal is dropped from
      a clause when no existential literal of the clause depends on it;
    - equivalent-variable detection from binary clauses, adapted to DQBF:
      merging two existentials narrows the representative's dependency set
      to the intersection; an existential forced equal to a universal
      outside its dependency set — or two universals forced equal — make
      the formula unsatisfiable;
    - Tseitin gate detection for AND/OR/XOR gates with arbitrarily negated
      inputs; detected definitions are removed from the clause set and
      substituted structurally into the AIG (dependency-legal gates only).

    Gate detection (and the optional blocked-clause elimination) then run
    on the engine's clauses, and the {!Formula.t} is assembled. *)

type stats = {
  units : int;  (** unit literals propagated *)
  reduced_lits : int;  (** universal literals removed by reduction *)
  equivs : int;  (** variables merged away *)
  gates : int;  (** gate definitions substituted *)
  blocked : int;  (** clauses removed by blocked-clause elimination *)
}

type config = {
  gate_detection : bool;
  blocked_clauses : bool;
      (** DQBF blocked-clause elimination (Wimmer et al., SAT 2015) — the
          "more sophisticated preprocessing" the paper's conclusion points
          to. Off by default (not part of the DATE'15 pipeline); skipped
          automatically when a model trail is attached, because the rule
          does not preserve Skolem certificates. *)
  inproc : Inproc.mode;
      (** Strength of the {!Inproc} engine run
          ({!Inproc.config_of_mode}); its step witnesses are replayed
          into the model trail. [Off] is the engine with no rule enabled:
          the clauses reach gate detection unsimplified. *)
}

val default_config : config
(** [inproc] defaults to {!Inproc.default_mode} ([On]); [--inproc]
    overrides the field. *)

val off : config
(** No simplification at all ([--no-preprocess]): [inproc = Off], no gate
    detection, no blocked-clause elimination. *)

type outcome =
  | Unsat  (** refuted during preprocessing *)
  | Formula of Formula.t * stats

val run :
  ?config:config ->
  ?node_limit:int ->
  ?trail:Model_trail.t ->
  ?on_inproc:(Inproc.outcome -> unit) ->
  Pcnf.t ->
  outcome
(** [on_inproc] fires once per call, after trail replay, with the raw
    engine outcome (under [Off] a result with no steps) — the hook the
    solver uses to audit the run ({!Check.audit_inproc} lives above this
    library). Exceptions raised by the callback propagate. *)

val run_inproc :
  ?mode:Inproc.mode -> Pcnf.t -> [ `Unsat | `Done of Pcnf.t * Inproc.result ]
(** Run only the inprocessing engine on a prefixed CNF and convert the
    result back to a {!Pcnf.t} (same [num_vars]; simplified clauses,
    possibly narrowed prefix). Used by [hqs analyze] reports, the bench
    reduction tables and tests; no model trail is threaded. *)
