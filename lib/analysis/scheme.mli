(** Dependency-scheme selection for the static analyzer ({!Rp}).

    A dependency scheme maps a DQBF prefix to a refined prefix whose
    dependency sets are subsets of the declared ones while preserving
    satisfiability:
    - [Trivial] — the identity scheme: keep the prefix exactly as written;
    - [Rp] — the reflexive resolution-path scheme (Slivovsky & Szeider):
      drop [x] from [dep(y)] when no pair of resolution paths connects
      [x]/[y] in both polarities.

    The solver default is [Rp], overridable per solve with
    [--dep-scheme]. *)

type t = Trivial | Rp

val default : t
(** [Rp]. *)

val name : t -> string
(** ["trivial"] / ["rp"]. *)

val of_string : string -> t option
(** Inverse of {!name}; [None] on anything else. *)
