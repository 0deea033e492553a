(** Memoized supports, cofactor vectors and bound-set scores.

    The bound-set search evaluates [Bound_select.score] on many
    overlapping candidates: greedy growth scores every extension of the
    current candidate, Curtis retries rescore supersets, and successive
    driver iterations revisit the same (unchanged) ISFs.  A cache
    instance persists across all of them.  {!retain} drops entries of
    dead ISFs to bound memory after the driver commits a step.

    Scores are keyed canonically by {e function fingerprints}
    ({!Bdd.fingerprint}) — an ISF is the pair of digests of its on- and
    dc-sets — so entries of rewritten ISFs are unreachable rather than
    stale.  Fingerprints are manager-independent, so the score memo
    {e outlives} any single {!Bdd.manager}: scores computed in one run
    are valid hits for a later run that builds the same functions in a
    fresh manager (the serve daemon's cross-request reuse, and the
    qcheck property [cache-hit score = fresh score across two
    managers]).

    Supports and cofactor vectors, by contrast, are keyed by node ids
    and hold manager-tied {!Isf.t} values: both tables are
    automatically flushed when the cache is used with a manager other
    than the one that filled them. *)

type t

val create : ?stats:Stats.t -> unit -> t
(** Counters and timings are accumulated into [stats].  Pass the run's
    own instance; the default is a fresh throwaway {!Stats.create} so an
    undirected cache never shares counters with another run. *)

val stats : t -> Stats.t

val support : t -> Bdd.manager -> Isf.t -> int list
(** Memoized {!Isf.support}. *)

type vector = {
  classes : int array;
      (** one entry per vertex, in {!Isf.cofactor_vector} order (the
          first variable is the most significant bit of the vertex
          index): the index of the vertex's cofactor in [cofactors] *)
  cofactors : Isf.t array;  (** the distinct cofactors *)
}
(** A cofactor vector with its classes: vertex [i]'s cofactor is
    [cofactors.(classes.(i))], and [Array.length cofactors] is the
    number of distinct cofactors. *)

val cofactor_vector : t -> Bdd.manager -> Isf.t -> int list -> vector
(** Memoized {!Isf.cofactor_vector} for an ascending variable list, in
    class form.  Callers pass only variables of the ISF's support (the
    vector over any other variable repeats each entry), which lets
    candidates that differ outside the support share one entry.  On a
    miss the vector is built from the nearest cached subset (every
    intermediate prefix is cached too) by splitting each of its distinct
    cofactors on the missing variable, so growing searches pay one
    variable's worth of restricts per new candidate, and only for the
    distinct cofactors, instead of a full recomputation.  Switching
    managers flushes the vector and support tables; scores are kept. *)

type score_key

val score_key :
  Bdd.manager ->
  lut_size:int ->
  ?cost:Cost.t ->
  Isf.t list ->
  int list ->
  score_key
(** Key of a score query: the scoring mode ([lut_size] and the
    objective's {!Cost.key_of} fragment — tag plus arrival profile,
    so arrival-aware scores taken under different network states never
    collide), the sorted bound set, and the fingerprints of the
    participating ISFs.  The manager is only needed to compute
    (memoized) fingerprints; the key itself carries no per-manager
    state.  [cost] defaults to {!Cost.area}, whose fragment is
    constant — area keys are unchanged across runs and managers. *)

val find_score : t -> score_key -> (int * int * int) option
val add_score : t -> score_key -> int * int * int -> unit

val retain : t -> Bdd.manager -> live:Isf.t list -> unit
(** Drop every entry that mentions an ISF outside [live].  Called by
    the driver after a committed step rewrites participant ISFs; pure
    memory hygiene — lookups of dead keys cannot collide with live
    ones because fingerprints (and, within one manager, node ids)
    identify functions exactly. *)

val clear : t -> unit
