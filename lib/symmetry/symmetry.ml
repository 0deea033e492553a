type group = (int * bool) list

let group_vars g = List.map fst g

let swap_rel m f ~rel i j =
  let swapped = Bdd.swap_vars m f i j in
  if rel then Bdd.negate_var m (Bdd.negate_var m swapped i) j else swapped

(* Quadrant cofactors [f|x_i=a,x_j=b].  Exchanging the two variables
   with relative phase [rel] swaps the quadrants 01 and 10 when [rel] is
   false and 00 and 11 when it is true, and fixes the other two.  So a
   pair test or merge compares or merges the two exchanged quadrants,
   [p] and [q], and never builds the exchanged image of the whole
   function ([swap_rel] stays as the definition the tests check
   against). *)
let quadrant m f i j a b = Bdd.restrict m (Bdd.restrict m f i a) j b
let quad_p m f ~rel i j = quadrant m f i j false (not rel)
let quad_q m f ~rel i j = quadrant m f i j true rel

let symmetric_pair m fs ~rel i j =
  i <> j
  && List.for_all
       (fun f -> Bdd.equal (quad_p m f ~rel i j) (quad_q m f ~rel i j))
       fs

type quads = { on_p : Bdd.t; on_q : Bdd.t; dc_p : Bdd.t; dc_q : Bdd.t }

let quads m f ~rel i j =
  let on = Isf.on f and dc = Isf.dc f in
  {
    on_p = quad_p m on ~rel i j;
    on_q = quad_q m on ~rel i j;
    dc_p = quad_p m dc ~rel i j;
    dc_q = quad_q m dc ~rel i j;
  }

(* Don't cares can make the exchanged quadrants equal iff no on-minterm
   of one meets an off-minterm of the other. *)
let mergeable m q =
  Bdd.disjoint m q.on_p (Bdd.nor m q.on_q q.dc_q)
  && Bdd.disjoint m q.on_q (Bdd.nor m q.on_p q.dc_p)

(* Both exchanged quadrants become the union of their on-sets and the
   intersection of their dc-sets; the fixed quadrants keep theirs. *)
let symmetrize_one m f ~rel i j =
  let q = quads m f ~rel i j in
  if Bdd.equal q.on_p q.on_q && Bdd.equal q.dc_p q.dc_q then Some f
  else if not (mergeable m q) then None
  else
    let exchanged =
      (if rel then Bdd.xnor else Bdd.xor) m (Bdd.var m i) (Bdd.var m j)
    in
    let on = Bdd.ite m exchanged (Bdd.or_ m q.on_p q.on_q) (Isf.on f) in
    let dc = Bdd.ite m exchanged (Bdd.and_ m q.dc_p q.dc_q) (Isf.dc f) in
    Some (Isf.make m ~on ~dc)

let symmetrize m fs ~rel i j =
  if i = j then None
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | f :: rest -> (
          match symmetrize_one m f ~rel i j with
          | Some f' -> go (f' :: acc) rest
          | None -> None)
    in
    go [] fs

let symmetrizable m fs ~rel i j =
  i <> j && List.for_all (fun f -> mergeable m (quads m f ~rel i j)) fs

(* Exchange relations induced by the phases of a group: every pair of
   members, with the xor of their phases. *)
let group_pairs g =
  let rec go = function
    | [] -> []
    | (v, pv) :: rest ->
        List.map (fun (w, pw) -> (v, w, pv <> pw)) rest @ go rest
  in
  go g

(* Close the function vector under all exchange relations of a group:
   repeat the forced assignments until a fixpoint.  Terminates because
   the care set only grows.  [None] if some pair becomes conflicting. *)
let close m fs pairs =
  let rec loop fs =
    let changed = ref false in
    let step fs (i, j, rel) =
      match fs with
      | None -> None
      | Some fs -> (
          match symmetrize m fs ~rel i j with
          | None -> None
          | Some fs' ->
              if not (List.for_all2 Isf.equal fs fs') then changed := true;
              Some fs')
    in
    match List.fold_left step (Some fs) pairs with
    | None -> None
    | Some fs' -> if !changed then loop fs' else Some fs'
  in
  loop fs

let close_group m fs group = close m fs (group_pairs group)

type result = { functions : Isf.t list; groups : group list }

let maximize ?(budget = 4000) ?(use_equivalence = true) ?(check = ignore) m fs
    vars =
  let budget = ref budget in
  let merge_groups fs g1 g2 q =
    if !budget <= 0 then None
    else begin
      check ();
      decr budget;
      (* Cheap rejection first: every cross pair must be individually
         symmetrizable before attempting the (quadratic) closure. *)
      let cross_ok =
        List.for_all
          (fun (v, pv) ->
            List.for_all
              (fun (w, pw) -> symmetrizable m fs ~rel:(pv <> (pw <> q)) v w)
              g2)
          g1
      in
      if not cross_ok then None
      else
        let merged = g1 @ List.map (fun (w, pw) -> (w, pw <> q)) g2 in
        match close m fs (group_pairs merged) with
        | Some fs' -> Some (fs', merged)
        | None -> None
    end
  in
  let phases = if use_equivalence then [ false; true ] else [ false ] in
  (* Greedy: repeatedly scan group pairs, commit the first successful
     merge, until a full scan makes no progress or the budget is gone. *)
  let rec grow fs groups =
    let arr = Array.of_list groups in
    let n = Array.length arr in
    let found = ref None in
    (try
       for a = 0 to n - 1 do
         for b = a + 1 to n - 1 do
           List.iter
             (fun q ->
               if !found = None && !budget > 0 then
                 match merge_groups fs arr.(a) arr.(b) q with
                 | Some (fs', merged) ->
                     found := Some (fs', merged, a, b);
                     raise Exit
                 | None -> ())
             phases
         done
       done
     with Exit -> ());
    match !found with
    | None -> (fs, groups)
    | Some (fs', merged, a, b) ->
        let rest =
          List.filteri (fun idx _ -> idx <> a && idx <> b) groups
        in
        grow fs' (merged :: rest)
  in
  let singletons = List.map (fun v -> [ (v, false) ]) vars in
  let fs', groups = grow fs singletons in
  (* Restore the original variable order inside and across groups. *)
  let groups =
    groups
    |> List.map (List.sort (fun (v, _) (w, _) -> compare v w))
    |> List.sort (fun g1 g2 ->
           match (g1, g2) with
           | (v, _) :: _, (w, _) :: _ -> compare v w
           | _, _ -> 0)
  in
  { functions = fs'; groups }

let partition ?budget ?check m fs vars =
  let isfs = List.map (Isf.of_csf m) fs in
  (maximize ?budget ?check m isfs vars).groups
