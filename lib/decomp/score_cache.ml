(* Memoization layer for the bound-set search (the paper's inner loop:
   ncc(f, B) over many candidate bound sets).

   Two kinds of tables with two kinds of keys.

   Scores (triples of ints — the objective term plus the classical area
   pair) are keyed canonically by function fingerprints: an ISF is the
   pair of Bdd.fingerprint digests of its on- and dc-sets.  Fingerprints
   do not die with the per-run Bdd.manager, so a score computed in one
   run can be looked up by a later run that builds the same function in
   a fresh manager, and entries of a rewritten ISF can never be looked
   up by mistake — invalidation ([retain]) is purely about bounding
   memory, never about correctness.

   Cofactor vectors and supports hold (or describe) Isf.t values tied
   to the manager that built them, so they are keyed by node ids and
   flushed whenever the cache is presented with a different manager
   (physical equality on the manager value).  Within one manager node
   ids are as canonical as fingerprints and cost nothing to compute.

   A vector is keyed by the variables it splits on, and its callers
   pass only bound variables in the ISF's support: restricting on any
   other variable returns the ISF itself, so the full vector over B is
   the vector over B /\ supp f read through a projection of the vertex
   index.  Candidates that differ only outside an ISF's support share
   that ISF's entry.  An entry holds the distinct cofactors and a class
   array (vertex -> index of its cofactor among them), so scoring a hit
   does no per-vertex hashing.  The vector for S u {v} is built from a
   cached vector for S by splitting each distinct cofactor on v
   (restricts of small, already-restricted BDDs) instead of every
   vertex's, let alone recomputing all cofactors from the root. *)

type vector = { classes : int array; cofactors : Isf.t array }

type isf_key = string * string

let isf_key m f = (Bdd.fingerprint m (Isf.on f), Bdd.fingerprint m (Isf.dc f))

type score_key = int * (int * int list) * int list * isf_key list

(* Vectors are keyed by (on id, dc id, ascending variables), supports by
   (on id, dc id). *)
type t = {
  stats : Stats.t;
  cof : (int * int * int list, vector) Hashtbl.t;
  supports : (int * int, int list) Hashtbl.t;
  scores : (score_key, int * int * int) Hashtbl.t;
  (* the manager whose nodes the [cof] and [supports] tables describe *)
  mutable cof_manager : Bdd.manager option;
}

let create ?(stats = Stats.create ()) () =
  {
    stats;
    cof = Hashtbl.create 256;
    supports = Hashtbl.create 64;
    scores = Hashtbl.create 256;
    cof_manager = None;
  }

let stats t = t.stats
let ids f = (Bdd.id (Isf.on f), Bdd.id (Isf.dc f))

(* Vectors and supports hold manager-tied values; scores are plain ints.
   When the cache crosses to a new manager, the node ids of the old one
   mean nothing (and its vectors' nodes belong to a foreign unique
   table), so both tables restart empty while the scores carry over. *)
let ensure_manager t m =
  match t.cof_manager with
  | Some m' when m' == m -> ()
  | Some _ ->
      Hashtbl.reset t.cof;
      Hashtbl.reset t.supports;
      t.cof_manager <- Some m
  | None -> t.cof_manager <- Some m

let support t m f =
  ensure_manager t m;
  let key = ids f in
  match Hashtbl.find_opt t.supports key with
  | Some s -> s
  | None ->
      let s = Isf.support m f in
      Hashtbl.add t.supports key s;
      s

(* The vector for the ascending merge of [vars] and [v], from the vector
   for [vars]: each distinct cofactor is split on [v] once, and each
   vertex of the merge takes the class of its half.  In the merge, [v]'s
   bit sits just above the bits of the [low_bits] variables greater
   than it. *)
let split m vec vars v =
  let p = List.length vars in
  let low_bits = List.length (List.filter (fun u -> u > v) vars) in
  let mask = (1 lsl low_bits) - 1 in
  let seen = Hashtbl.create 16 and distinct = ref [] in
  let number g =
    let key = ids g in
    match Hashtbl.find_opt seen key with
    | Some c -> c
    | None ->
        let c = Hashtbl.length seen in
        Hashtbl.add seen key c;
        distinct := g :: !distinct;
        c
  in
  let lo = Array.map (fun g -> number (Isf.restrict m g v false)) vec.cofactors in
  let hi = Array.map (fun g -> number (Isf.restrict m g v true)) vec.cofactors in
  let classes = Array.make (2 lsl p) 0 in
  Array.iteri
    (fun i c ->
      let base = ((i lsr low_bits) lsl (low_bits + 1)) lor (i land mask) in
      classes.(base) <- lo.(c);
      classes.(base lor (1 lsl low_bits)) <- hi.(c))
    vec.classes;
  { classes; cofactors = Array.of_list (List.rev !distinct) }

let cofactor_vector t m f vars =
  ensure_manager t m;
  t.stats.Stats.cof_lookups <- t.stats.Stats.cof_lookups + 1;
  let on, dc = ids f in
  let hit_below = ref false in
  let rec get vars =
    match Hashtbl.find_opt t.cof (on, dc, vars) with
    | Some vec ->
        hit_below := true;
        vec
    | None ->
        let vec =
          match List.rev vars with
          | [] -> { classes = [| 0 |]; cofactors = [| f |] }
          | last :: rev_rest ->
              (* Prefer any cached size-(p-1) subset; otherwise walk the
                 remove-maximum chain, caching every prefix on the way
                 up. *)
              let sub, v =
                match
                  List.find_map
                    (fun v ->
                      let sub = List.filter (fun u -> u <> v) vars in
                      if Hashtbl.mem t.cof (on, dc, sub) then Some (sub, v)
                      else None)
                    vars
                with
                | Some pair -> pair
                | None -> (List.rev rev_rest, last)
              in
              let vec_sub = get sub in
              t.stats.Stats.restricts <-
                t.stats.Stats.restricts + (2 * Array.length vec_sub.cofactors);
              split m vec_sub sub v
        in
        Hashtbl.add t.cof (on, dc, vars) vec;
        vec
  in
  match Hashtbl.find_opt t.cof (on, dc, vars) with
  | Some vec ->
      t.stats.Stats.cof_hits <- t.stats.Stats.cof_hits + 1;
      vec
  | None ->
      let vec = get vars in
      if !hit_below then
        t.stats.Stats.cof_extends <- t.stats.Stats.cof_extends + 1
      else t.stats.Stats.cof_fresh <- t.stats.Stats.cof_fresh + 1;
      vec

let score_key m ~lut_size ?(cost = Cost.area) isfs bound =
  (* The cost fragment carries the objective tag and (for the
     arrival-aware objectives) the arrival profile the score was
     computed under, so one cache serves every mode — and every
     network state — without mixing.  Area scores are
     arrival-independent and share one key shape across runs. *)
  (lut_size, Cost.key_of cost bound, bound, List.map (isf_key m) isfs)

let find_score t key = Hashtbl.find_opt t.scores key
let add_score t key value = Hashtbl.replace t.scores key value

let retain t m ~live =
  t.stats.Stats.retains <- t.stats.Stats.retains + 1;
  let alive = Hashtbl.create (List.length live * 2) in
  List.iter (fun f -> Hashtbl.replace alive (isf_key m f) ()) live;
  let alive_ids = Hashtbl.create (List.length live * 2) in
  List.iter (fun f -> Hashtbl.replace alive_ids (ids f) ()) live;
  let before = Hashtbl.length t.cof + Hashtbl.length t.scores in
  Hashtbl.filter_map_inplace
    (fun (on, dc, _) vec -> if Hashtbl.mem alive_ids (on, dc) then Some vec else None)
    t.cof;
  Hashtbl.filter_map_inplace
    (fun key s -> if Hashtbl.mem alive_ids key then Some s else None)
    t.supports;
  Hashtbl.filter_map_inplace
    (fun (_, _, _, fks) s ->
      if List.for_all (Hashtbl.mem alive) fks then Some s else None)
    t.scores;
  let after = Hashtbl.length t.cof + Hashtbl.length t.scores in
  t.stats.Stats.evicted <- t.stats.Stats.evicted + (before - after)

let clear t =
  Hashtbl.reset t.cof;
  Hashtbl.reset t.supports;
  Hashtbl.reset t.scores
