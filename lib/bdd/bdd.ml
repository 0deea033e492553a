(* Constants are immediates and an internal node is a single block, so
   the unique table holds plain pointers and hash consing makes physical
   equality coincide with functional equality inside one manager. *)
type t =
  | Zero
  | One
  | Node of { id : int; v : int; lo : t; hi : t }

type counters = {
  cache_lookups : int;
  cache_hits : int;
  unique_inserts : int;
  peak_nodes : int;
  resizes : int;
}

type manager = {
  mutable next_id : int;
  (* Unique table: open addressing with linear probing over node
     pointers, [Zero] marking an empty slot (constants are never
     stored, and variable indices play no part in the empty test, so
     every [int] is a valid index).  Load stays at most 1/2. *)
  mutable unique : t array;
  mutable live : int;
  (* Computed table shared by and/or/xor/not/ite/restrict/disjoint:
     direct mapped and lossy.  Slot [i] caches the result [cres.(i)] of
     the key [(ck1.(i), ck2.(i), ck3.(i))]; the operation's tag is
     folded into the third key (see [tag_*]).  [ck1] is always a node
     id, so [-1] marks an empty slot.  A lost entry only costs a
     recomputation: every intermediate result is still in the unique
     table, so the recomputation returns the same nodes. *)
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable ck3 : int array;
  mutable cres : t array;
  (* node id -> sorted support, memoized for the node's lifetime *)
  support_cache : (int, int list) Hashtbl.t;
  (* node id -> canonical 16-byte fingerprint, memoized for the node's
     lifetime (nodes are immutable and never collected) *)
  fingerprint_cache : (int, string) Hashtbl.t;
  (* Resource-governor hook: called with the live node count once every
     [growth_interval] fresh allocations.  May raise to abort the
     current operation; a node enters the unique table before the hook
     runs and the computed table only ever receives completed results,
     so an abort cannot corrupt the manager. *)
  mutable growth_hook : (int -> unit) option;
  mutable growth_tick : int;
  mutable lookups : int;
  mutable hits : int;
  mutable resizes : int;
}

let growth_interval = 1024

(* The computed table doubles while the live node count exceeds twice
   its size, up to this many entries. *)
let max_cache = 1 lsl 18

(* Third-key tags.  ITE stores the id of its third operand there, which
   is never negative, so the tags cannot collide with it. *)
let tag_and = -1
let tag_or = -2
let tag_xor = -3
let tag_not = -4
let tag_disjoint = -5
let tag_restrict0 = -6
let tag_restrict1 = -7

let hash3 a b c =
  let h = (a * 0x9e3779b1) + (b * 0x85ebca6b) + (c * 0xc2b2ae35) in
  h lxor (h lsr 17)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let manager ?(cache_size = 256) () =
  let size = pow2_at_least (max 1 cache_size) 1 in
  {
    next_id = 2;
    unique = Array.make (2 * size) Zero;
    live = 0;
    ck1 = Array.make size (-1);
    ck2 = Array.make size 0;
    ck3 = Array.make size 0;
    cres = Array.make size Zero;
    support_cache = Hashtbl.create 64;
    fingerprint_cache = Hashtbl.create 64;
    growth_hook = None;
    growth_tick = growth_interval;
    lookups = 0;
    hits = 0;
    resizes = 0;
  }

let set_growth_hook m hook =
  m.growth_hook <- hook;
  m.growth_tick <- growth_interval

let clear_caches m = Array.fill m.ck1 0 (Array.length m.ck1) (-1)

let node_count m = m.live

let counters m =
  {
    cache_lookups = m.lookups;
    cache_hits = m.hits;
    unique_inserts = m.live;
    peak_nodes = m.live;
    resizes = m.resizes;
  }

let zero _ = Zero
let one _ = One
let id = function Zero -> 0 | One -> 1 | Node n -> n.id
let equal a b = a == b
let compare a b = Int.compare (id a) (id b)
let hash = id
let is_zero a = a == Zero
let is_one a = a == One
let is_const = function Zero | One -> true | Node _ -> false

let view = function
  | Zero -> `Zero
  | One -> `One
  | Node { v; lo; hi; _ } -> `Node (v, lo, hi)

let top_var = function
  | Node { v; _ } -> v
  | Zero | One -> invalid_arg "Bdd.top_var: constant"

(* Helpers of the recursive operations: the level of a node (constants
   sort below every variable) and its cofactors at level [v]. *)
let level = function Node { v; _ } -> v | Zero | One -> max_int

let cof_lo f v =
  match f with Node n when n.v = v -> n.lo | Zero | One | Node _ -> f

let cof_hi f v =
  match f with Node n when n.v = v -> n.hi | Zero | One | Node _ -> f

(* {2 Computed table} *)

(* Returned by [cache_find] on a miss; never a valid result. *)
let miss = Node { id = -1; v = 0; lo = Zero; hi = Zero }

let cache_find m k1 k2 k3 =
  m.lookups <- m.lookups + 1;
  let i = hash3 k1 k2 k3 land (Array.length m.ck1 - 1) in
  if m.ck1.(i) = k1 && m.ck2.(i) = k2 && m.ck3.(i) = k3 then begin
    m.hits <- m.hits + 1;
    m.cres.(i)
  end
  else miss

let cache_add m k1 k2 k3 r =
  let i = hash3 k1 k2 k3 land (Array.length m.ck1 - 1) in
  m.ck1.(i) <- k1;
  m.ck2.(i) <- k2;
  m.ck3.(i) <- k3;
  m.cres.(i) <- r

let grow_cache m =
  let o1 = m.ck1 and o2 = m.ck2 and o3 = m.ck3 and ores = m.cres in
  let size = 2 * Array.length o1 in
  m.ck1 <- Array.make size (-1);
  m.ck2 <- Array.make size 0;
  m.ck3 <- Array.make size 0;
  m.cres <- Array.make size Zero;
  m.resizes <- m.resizes + 1;
  Array.iteri
    (fun i k1 -> if k1 >= 0 then cache_add m k1 o2.(i) o3.(i) ores.(i))
    o1

(* {2 Unique table} *)

let slot_of tab v lo hi = hash3 v (id lo) (id hi) land (Array.length tab - 1)

(* The slot holding [(v, lo, hi)], or the empty slot where it belongs. *)
let rec probe tab i v lo hi =
  match tab.(i) with
  | Zero -> i
  | Node n when n.v = v && n.lo == lo && n.hi == hi -> i
  | One | Node _ -> probe tab ((i + 1) land (Array.length tab - 1)) v lo hi

let grow_unique m =
  let old = m.unique in
  let tab = Array.make (2 * Array.length old) Zero in
  Array.iter
    (function
      | Node { v; lo; hi; _ } as x -> tab.(probe tab (slot_of tab v lo hi) v lo hi) <- x
      | Zero | One -> ())
    old;
  m.unique <- tab;
  m.resizes <- m.resizes + 1

(* The single constructor maintaining reduction and sharing. *)
let mk m v lo hi =
  if lo == hi then lo
  else
    let tab = m.unique in
    let i = probe tab (slot_of tab v lo hi) v lo hi in
    match tab.(i) with
    | Node _ as x -> x
    | Zero | One ->
        let x = Node { id = m.next_id; v; lo; hi } in
        m.next_id <- m.next_id + 1;
        tab.(i) <- x;
        m.live <- m.live + 1;
        if 2 * m.live > Array.length tab then grow_unique m;
        if m.live > 2 * Array.length m.ck1 && Array.length m.ck1 < max_cache then
          grow_cache m;
        m.growth_tick <- m.growth_tick - 1;
        if m.growth_tick <= 0 then begin
          m.growth_tick <- growth_interval;
          match m.growth_hook with Some hook -> hook m.live | None -> ()
        end;
        x

let var m i = mk m i Zero One

let nvar m i = mk m i One Zero

let not_ m f =
  let rec go f =
    match f with
    | Zero -> One
    | One -> Zero
    | Node n ->
        let r = cache_find m n.id 0 tag_not in
        if r != miss then r
        else begin
          let r = mk m n.v (go n.lo) (go n.hi) in
          cache_add m n.id 0 tag_not r;
          r
        end
  in
  go f

(* Binary operations via Shannon expansion.  [terminal] answers the
   constant cases of the operation [tag], or [miss]. *)
let terminal m tag f g =
  if tag = tag_and then
    if f == Zero || g == Zero then Zero
    else if f == One || f == g then g
    else if g == One then f
    else miss
  else if tag = tag_or then
    if f == One || g == One then One
    else if f == Zero || f == g then g
    else if g == Zero then f
    else miss
  else if f == Zero then g
  else if g == Zero then f
  else if f == g then Zero
  else if f == One then not_ m g
  else if g == One then not_ m f
  else miss

let apply m tag =
  let rec go f g =
    let r = terminal m tag f g in
    if r != miss then r
    else
      (* Commutative ops: normalize the key. *)
      let ka = min (id f) (id g) and kb = max (id f) (id g) in
      let r = cache_find m ka kb tag in
      if r != miss then r
      else begin
        let v = min (level f) (level g) in
        let r =
          mk m v (go (cof_lo f v) (cof_lo g v)) (go (cof_hi f v) (cof_hi g v))
        in
        cache_add m ka kb tag r;
        r
      end
  in
  go

let and_ m f g = apply m tag_and f g
let or_ m f g = apply m tag_or f g
let xor m f g = apply m tag_xor f g
let nand m f g = not_ m (and_ m f g)
let nor m f g = not_ m (or_ m f g)
let xnor m f g = not_ m (xor m f g)
let imp m f g = or_ m (not_ m f) g
let diff m f g = and_ m f (not_ m g)

let disjoint m f g =
  let rec go f g =
    if f == Zero || g == Zero then true
    else if f == One || g == One || f == g then false
    else
      let ka = min (id f) (id g) and kb = max (id f) (id g) in
      let r = cache_find m ka kb tag_disjoint in
      if r != miss then r == One
      else begin
        let v = min (level f) (level g) in
        let d =
          go (cof_lo f v) (cof_lo g v) && go (cof_hi f v) (cof_hi g v)
        in
        cache_add m ka kb tag_disjoint (if d then One else Zero);
        d
      end
  in
  go f g

let ite m f g h =
  let rec go f g h =
    if f == One then g
    else if f == Zero then h
    else if g == h then g
    else if g == One && h == Zero then f
    else if g == Zero && h == One then not_ m f
    else
      let kf = id f and kg = id g and kh = id h in
      let r = cache_find m kf kg kh in
      if r != miss then r
      else begin
        let v = min (level f) (min (level g) (level h)) in
        let r =
          mk m v
            (go (cof_lo f v) (cof_lo g v) (cof_lo h v))
            (go (cof_hi f v) (cof_hi g v) (cof_hi h v))
        in
        cache_add m kf kg kh r;
        r
      end
  in
  go f g h

let and_list m fs = List.fold_left (and_ m) One fs
let or_list m fs = List.fold_left (or_ m) Zero fs

let restrict m f v b =
  let tag = if b then tag_restrict1 else tag_restrict0 in
  let rec go f =
    match f with
    | Zero | One -> f
    | Node n ->
        if n.v > v then f
        else if n.v = v then if b then n.hi else n.lo
        else
          let r = cache_find m n.id v tag in
          if r != miss then r
          else begin
            let r = mk m n.v (go n.lo) (go n.hi) in
            cache_add m n.id v tag r;
            r
          end
  in
  go f

let cofactor2 m f v = (restrict m f v false, restrict m f v true)

let exists m vars f =
  let vars = List.sort_uniq Stdlib.compare vars in
  List.fold_left
    (fun acc v ->
      let lo, hi = cofactor2 m acc v in
      or_ m lo hi)
    f vars

let forall m vars f =
  let vars = List.sort_uniq Stdlib.compare vars in
  List.fold_left
    (fun acc v ->
      let lo, hi = cofactor2 m acc v in
      and_ m lo hi)
    f vars

let compose m f v g =
  let lo, hi = cofactor2 m f v in
  ite m g hi lo

(* Memoized per node: support(f) = {top} U support(lo) U support(hi),
   merged as sorted lists.  Nodes are immutable and never collected, so
   the cache never invalidates. *)
let support m f =
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x < y then x :: merge xs b
        else if y < x then y :: merge a ys
        else x :: merge xs ys
  in
  let rec go f =
    match f with
    | Zero | One -> []
    | Node { id; v; lo; hi } -> (
        match Hashtbl.find_opt m.support_cache id with
        | Some s -> s
        | None ->
            let s = merge [ v ] (merge (go lo) (go hi)) in
            Hashtbl.add m.support_cache id s;
            s)
  in
  go f

let depends_on f v =
  let seen = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Zero | One -> false
    | Node { id; v = fv; lo; hi } ->
        if fv > v then false
        else if fv = v then true
        else if Hashtbl.mem seen id then false
        else begin
          Hashtbl.add seen id ();
          go lo || go hi
        end
  in
  go f

let size_list fs =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go f =
    match f with
    | Zero | One -> ()
    | Node { id; lo; hi; _ } ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          incr count;
          go lo;
          go hi
        end
  in
  List.iter go fs;
  !count

let size f = size_list [ f ]

let vector_compose m f subst =
  (* Replacement functions must not mention substituted variables, so that
     sequential composition coincides with simultaneous substitution. *)
  assert (
    List.for_all
      (fun (_, g) -> List.for_all (fun (w, _) -> not (depends_on g w)) subst)
      subst);
  List.fold_left (fun acc (v, g) -> compose m acc v g) f subst

let swap_vars m f i j =
  if i = j then f
  else
    let f0 = restrict m f i false and f1 = restrict m f i true in
    let f00 = restrict m f0 j false
    and f01 = restrict m f0 j true
    and f10 = restrict m f1 j false
    and f11 = restrict m f1 j true in
    let vi = var m i and vj = var m j in
    (* result_{i=a, j=b} = f_{i=b, j=a} *)
    ite m vi (ite m vj f11 f01) (ite m vj f10 f00)

let rename m f pi =
  (* Rebuild bottom-up through ITE, which restores ordering even when
     [pi] is not monotone.  Memoized per (function, this call). *)
  let cache = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Zero | One -> f
    | Node { id; v; lo; hi } -> (
        match Hashtbl.find_opt cache id with
        | Some r -> r
        | None ->
            let r = ite m (var m (pi v)) (go hi) (go lo) in
            Hashtbl.add cache id r;
            r)
  in
  go f

let negate_var m f v =
  let lo, hi = cofactor2 m f v in
  ite m (var m v) lo hi

(* Merkle digest of the ROBDD structure: the fingerprint of a node is
   the MD5 of its variable index and the fingerprints of its children.
   Because ROBDDs are canonical for a fixed variable order, two
   functions have the same fingerprint iff they are the same function
   (up to MD5 collisions, negligible at 128 bits) — regardless of
   which manager built them, in what order, or what node ids they got.
   Memoized per node in the manager, so amortized cost is one digest
   per distinct node ever fingerprinted. *)
let zero_fp = Digest.string "mfd-bdd-zero"
let one_fp = Digest.string "mfd-bdd-one"

let fingerprint m f =
  let buf = Buffer.create 40 in
  let rec go f =
    match f with
    | Zero -> zero_fp
    | One -> one_fp
    | Node { id; v; lo; hi } -> (
        match Hashtbl.find_opt m.fingerprint_cache id with
        | Some fp -> fp
        | None ->
            let flo = go lo in
            let fhi = go hi in
            Buffer.clear buf;
            Buffer.add_string buf (string_of_int v);
            Buffer.add_char buf '|';
            Buffer.add_string buf flo;
            Buffer.add_string buf fhi;
            let fp = Digest.string (Buffer.contents buf) in
            Hashtbl.add m.fingerprint_cache id fp;
            fp)
  in
  go f

let equal_on m ~care f g = disjoint m care (xor m f g)

let miter m pairs = or_list m (List.map (fun (f, g) -> xor m f g) pairs)

let sat_count m f ~nvars =
  ignore m;
  let cache = Hashtbl.create 64 in
  let rec go f =
    (* Number of satisfying assignments of the variables strictly below
       the top of [f], counted relative to the top variable level. *)
    match f with
    | Zero -> 0.0
    | One -> 1.0
    | Node { id; v; lo; hi } -> (
        match Hashtbl.find_opt cache id with
        | Some r -> r
        | None ->
            let weight g =
              let level_gap =
                match g with
                | Node { v = gv; _ } -> gv - v - 1
                | Zero | One -> nvars - v - 1
              in
              go g *. (2.0 ** float_of_int level_gap)
            in
            let r = weight lo +. weight hi in
            Hashtbl.add cache id r;
            r)
  in
  match f with
  | Zero -> 0.0
  | One -> 2.0 ** float_of_int nvars
  | Node { v; _ } -> go f *. (2.0 ** float_of_int v)

let eval f assignment =
  let rec go f =
    match f with
    | Zero -> false
    | One -> true
    | Node { v; lo; hi; _ } -> if assignment v then go hi else go lo
  in
  go f

let any_sat f =
  let rec go f acc =
    match f with
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node { v; lo; hi; _ } ->
        if lo != Zero then go lo ((v, false) :: acc) else go hi ((v, true) :: acc)
  in
  go f []

let random m ~nvars ~density st =
  let rec go v =
    if v = nvars then if Random.State.float st 1.0 < density then One else Zero
    else mk m v (go (v + 1)) (go (v + 1))
  in
  go 0

let cofactor_vector m f vars =
  let rec go f = function
    | [] -> [ f ]
    | v :: rest -> go (restrict m f v false) rest @ go (restrict m f v true) rest
  in
  Array.of_list (go f vars)

let of_vector m vars vec =
  let p = List.length vars in
  if Array.length vec <> 1 lsl p then invalid_arg "Bdd.of_vector: length mismatch";
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && ascending rest
  in
  if not (ascending vars) then invalid_arg "Bdd.of_vector: vars not ascending";
  let rec go vars lo_index width =
    match vars with
    | [] -> vec.(lo_index)
    | v :: rest ->
        let half = width / 2 in
        (* ITE (rather than a raw node constructor) keeps the result
           reduced and ordered even when the entries of [vec] depend on
           variables above [v]. *)
        ite m (var m v) (go rest (lo_index + half) half) (go rest lo_index half)
  in
  go vars 0 (Array.length vec)

let minterm_of_code m vars code =
  let p = List.length vars in
  let lits =
    List.mapi
      (fun k v ->
        let bit = (code lsr (p - 1 - k)) land 1 in
        if bit = 1 then var m v else nvar m v)
      vars
  in
  and_list m lits

let rec pp fmt f =
  match f with
  | Zero -> Format.fprintf fmt "0"
  | One -> Format.fprintf fmt "1"
  | Node { v; lo; hi; _ } -> Format.fprintf fmt "(x%d ? %a : %a)" v pp hi pp lo

let to_dot ?(name = "bdd") fs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let seen = Hashtbl.create 64 in
  let rec go f =
    if not (Hashtbl.mem seen (id f)) then begin
      Hashtbl.add seen (id f) ();
      match f with
      | Zero -> Buffer.add_string buf "  n0 [shape=box,label=\"0\"];\n"
      | One -> Buffer.add_string buf "  n1 [shape=box,label=\"1\"];\n"
      | Node { v; lo; hi; _ } ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d [label=\"x%d\"];\n" (id f) v);
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [style=dashed];\n" (id f) (id lo));
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" (id f) (id hi));
          go lo;
          go hi
    end
  in
  List.iter go fs;
  List.iteri
    (fun i f ->
      Buffer.add_string buf
        (Printf.sprintf "  f%d [shape=plaintext,label=\"f%d\"];\n  f%d -> n%d;\n"
           i i i (id f)))
    fs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
