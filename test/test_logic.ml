(* Tests for the logic substrate: bit-vector truth tables, cube covers
   and incompletely specified functions. *)

let man = Bdd.manager ()
let check_bool = Alcotest.(check bool)

let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

(* A random ISF over n variables: each minterm is on / off / dc. *)
let gen_isf n =
  let open QCheck2.Gen in
  let+ cells = list_size (return (1 lsl n)) (int_range 0 2) in
  let arr = Array.of_list cells in
  let on = Bv.of_fun n (fun i -> arr.(i) = 1) in
  let dc = Bv.of_fun n (fun i -> arr.(i) = 2) in
  (on, dc)

let isf_of_pair (on, dc) =
  Isf.make man ~on:(Bv.to_bdd man on) ~dc:(Bv.to_bdd man dc)

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

let bv_tests =
  [
    Alcotest.test_case "bv var indexing" `Quick (fun () ->
        let v1 = Bv.var 3 1 in
        check_bool "minterm 2 has x1=1" true (Bv.get v1 2);
        check_bool "minterm 5 has x1=0" false (Bv.get v1 5));
    Alcotest.test_case "bv set / get" `Quick (fun () ->
        let z = Bv.create 4 false in
        let z' = Bv.set z 11 true in
        check_bool "set" true (Bv.get z' 11);
        check_bool "original untouched" false (Bv.get z 11);
        Alcotest.(check int) "count" 1 (Bv.count_ones z'));
    Alcotest.test_case "bv eval" `Quick (fun () ->
        let f = Bv.and_ (Bv.var 3 0) (Bv.var 3 2) in
        check_bool "101" true (Bv.eval f (fun k -> k <> 1));
        check_bool "001" false (Bv.eval f (fun k -> k = 0)));
    Alcotest.test_case "bv zero-var functions" `Quick (fun () ->
        let t = Bv.create 0 true in
        check_bool "const true" true (Bv.get t 0);
        Alcotest.(check int) "one minterm" 1 (Bv.count_ones t));
  ]

let cover_tests =
  [
    Alcotest.test_case "cube string roundtrip" `Quick (fun () ->
        Alcotest.(check string) "roundtrip" "01-1"
          (Cover.string_of_cube (Cover.cube_of_string "01-1")));
    Alcotest.test_case "espresso '2' means dash" `Quick (fun () ->
        Alcotest.(check string) "2 -> -" "-"
          (Cover.string_of_cube (Cover.cube_of_string "2")));
    Alcotest.test_case "cube_to_bdd" `Quick (fun () ->
        let c = Cover.cube_of_string "1-0" in
        let f = Cover.cube_to_bdd man (fun k -> k) c in
        check_bool "eval 100" true (Bdd.eval f (fun v -> v = 0));
        check_bool "eval 110" true (Bdd.eval f (fun v -> v <= 1));
        check_bool "eval 101" false (Bdd.eval f (fun v -> v <> 1)));
    Alcotest.test_case "cover_to_bdd is a disjunction" `Quick (fun () ->
        let cubes = List.map Cover.cube_of_string [ "11"; "00" ] in
        let f = Cover.cover_to_bdd man (fun k -> k) cubes in
        check_bool "xnor" true (Bdd.equal f (Bdd.xnor man (Bdd.var man 0) (Bdd.var man 1))));
    Alcotest.test_case "bdd_to_cover covers exactly" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 2) in
        let cubes = Cover.bdd_to_cover man [ 0; 1; 2 ] f in
        let g = Cover.cover_to_bdd man (fun k -> k) cubes in
        check_bool "roundtrip" true (Bdd.equal f g));
  ]

let cover_props =
  [
    prop "bdd_to_cover roundtrips random functions" (gen_fun 5) (fun bv ->
        let f = Bv.to_bdd man bv in
        let cubes = Cover.bdd_to_cover man [ 0; 1; 2; 3; 4 ] f in
        Bdd.equal f (Cover.cover_to_bdd man (fun k -> k) cubes));
    prop "cube_eval agrees with cube_to_bdd"
      QCheck2.Gen.(
        pair
          (string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 4))
          (list_size (return 4) bool))
      (fun (s, assignment) ->
        let arr = Array.of_list assignment in
        let c = Cover.cube_of_string s in
        let f = Cover.cube_to_bdd man (fun k -> k) c in
        Cover.cube_eval c (fun k -> arr.(k)) = Bdd.eval f (fun v -> arr.(v)));
  ]

let isf_tests =
  [
    Alcotest.test_case "make rejects overlap" `Quick (fun () ->
        let x = Bdd.var man 0 in
        check_bool "raises" true
          (match Isf.make man ~on:x ~dc:x with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "of_csf has no dc" `Quick (fun () ->
        let f = Isf.of_csf man (Bdd.var man 0) in
        check_bool "csf" true (Isf.is_completely_specified f));
    Alcotest.test_case "off complements" `Quick (fun () ->
        let f = Isf.make man ~on:(Bdd.var man 0) ~dc:(Bdd.nvar man 0) in
        check_bool "off empty" true (Bdd.is_zero (Isf.off man f)));
    Alcotest.test_case "extends" `Quick (fun () ->
        let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 in
        let f = Isf.make man ~on:(Bdd.and_ man x0 x1) ~dc:(Bdd.and_ man x0 (Bdd.not_ man x1)) in
        check_bool "x0 extends" true (Isf.extends man x0 f);
        check_bool "x0/\\x1 extends" true (Isf.extends man (Bdd.and_ man x0 x1) f);
        check_bool "x1 does not" false (Isf.extends man x1 f));
    Alcotest.test_case "assign_all_zero / one" `Quick (fun () ->
        let x0 = Bdd.var man 0 in
        let f = Isf.make man ~on:x0 ~dc:(Bdd.nvar man 0) in
        check_bool "zero" true (Bdd.equal (Isf.on (Isf.assign_all_zero man f)) x0);
        check_bool "one" true (Bdd.is_one (Isf.on (Isf.assign_all_one man f))));
  ]

let isf_props =
  let n = 5 in
  [
    prop "random_extension extends" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        let st = Random.State.make [| 42 |] in
        Isf.extends man (Isf.random_extension man f st) f);
    prop "join of f with itself is f" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        Isf.equal f (Isf.join man f f));
    prop "compatible is symmetric" QCheck2.Gen.(pair (gen_isf n) (gen_isf n))
      (fun (p1, p2) ->
        let a = isf_of_pair p1 and b = isf_of_pair p2 in
        Isf.compatible man a b = Isf.compatible man b a);
    prop "join constraints: any extension of join extends both"
      QCheck2.Gen.(pair (gen_isf n) (gen_isf n))
      (fun (p1, p2) ->
        let a = isf_of_pair p1 and b = isf_of_pair p2 in
        if Isf.compatible man a b then begin
          let j = Isf.join man a b in
          let st = Random.State.make [| 7 |] in
          let g = Isf.random_extension man j st in
          Isf.extends man g a && Isf.extends man g b
        end
        else true);
    prop "csf extends itself" (gen_fun n) (fun bv ->
        let g = Bv.to_bdd man bv in
        Isf.extends man g (Isf.of_csf man g));
    prop "restrict commutes with extension" QCheck2.Gen.(pair (gen_isf n) (int_range 0 (n - 1)))
      (fun (pair, v) ->
        let f = isf_of_pair pair in
        let st = Random.State.make [| 13 |] in
        let g = Isf.random_extension man f st in
        Isf.extends man (Bdd.restrict man g v true) (Isf.restrict man f v true));
    prop "support of isf contained in var range" (gen_isf n) (fun pair ->
        let f = isf_of_pair pair in
        List.for_all (fun v -> v >= 0 && v < n) (Isf.support man f));
    (* Restricts (and the cofactor vectors built from them) skip
       [Isf.make]'s disjointness check: it must hold by construction. *)
    prop "restricts and cofactor vectors stay disjoint"
      QCheck2.Gen.(pair (gen_isf n) (int_range 1 ((1 lsl n) - 1)))
      (fun (pair, mask) ->
        let f = isf_of_pair pair in
        let disjoint g = Bdd.disjoint man (Isf.on g) (Isf.dc g) in
        let vars = List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init n Fun.id) in
        List.for_all
          (fun v -> disjoint (Isf.restrict man f v false) && disjoint (Isf.restrict man f v true))
          (List.init n Fun.id)
        && Array.for_all disjoint (Isf.cofactor_vector man f vars));
  ]

let suite =
  bv_tests @ cover_tests @ isf_tests
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) (cover_props @ isf_props)

(* Two-level minimization. *)
let minimize_tests =
  [
    Alcotest.test_case "minimize an and-or cover" `Quick (fun () ->
        (* f = x0 x1 + x0 x1' = x0: the two cubes must fuse *)
        let on = Bdd.var man 0 in
        let cubes = List.map Cover.cube_of_string [ "11-"; "10-" ] in
        let result = Minimize.minimize man ~ninputs:3 ~on cubes in
        Alcotest.(check int) "one cube" 1 (List.length result);
        Alcotest.(check string) "x0" "1--"
          (Cover.string_of_cube (List.hd result)));
    Alcotest.test_case "dc lets cubes expand" `Quick (fun () ->
        (* on = 11, dc = 10: cube 11 expands to 1- *)
        let on = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let dc = Bdd.and_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        let result =
          Minimize.minimize man ~ninputs:2 ~on ~dc
            [ Cover.cube_of_string "11" ]
        in
        Alcotest.(check string) "expanded" "1-"
          (Cover.string_of_cube (List.hd result)));
    Alcotest.test_case "redundant cube dropped" `Quick (fun () ->
        let on =
          Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1)
        in
        let cubes = List.map Cover.cube_of_string [ "1-"; "-1"; "11" ] in
        let result = Minimize.minimize man ~ninputs:2 ~on cubes in
        Alcotest.(check int) "two cubes" 2 (List.length result));
    Alcotest.test_case "rejects a non-cover" `Quick (fun () ->
        let on = Bdd.var man 0 in
        Alcotest.(check bool) "raises" true
          (match Minimize.minimize man ~ninputs:1 ~on [] with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let minimize_props =
  [
    prop "minimized cover is equivalent and no larger" ~count:150
      QCheck2.Gen.(pair (gen_fun 5) (gen_fun 5))
      (fun (on_bv, dc_bv) ->
        let on0 = Bv.to_bdd man on_bv in
        let dcsel = Bv.to_bdd man dc_bv in
        let on = Bdd.diff man on0 dcsel in
        let dc = Bdd.and_ man dcsel (Bdd.not_ man on) in
        let initial = Cover.bdd_to_cover man [ 0; 1; 2; 3; 4 ] on in
        if initial = [] then true
        else begin
          let result = Minimize.minimize man ~ninputs:5 ~on ~dc initial in
          Minimize.is_cover man ~ninputs:5 ~on ~dc result
          && List.length result <= List.length initial
        end);
    prop "every minimized cube is prime (no literal can be raised)"
      ~count:100 (gen_fun 4)
      (fun bv ->
        let on = Bv.to_bdd man bv in
        let initial = Cover.bdd_to_cover man [ 0; 1; 2; 3 ] on in
        if initial = [] then true
        else begin
          let result = Minimize.minimize man ~ninputs:4 ~on initial in
          List.for_all
            (fun cube ->
              (* raising any fixed literal must leave the on-set *)
              List.for_all
                (fun k ->
                  match cube.(k) with
                  | Cover.Ldash -> true
                  | Cover.L0 | Cover.L1 ->
                      let widened = Array.copy cube in
                      widened.(k) <- Cover.Ldash;
                      not
                        (Bdd.is_zero
                           (Bdd.diff man
                              (Cover.cube_to_bdd man (fun c -> c) widened)
                              on)))
                (List.init 4 Fun.id))
            result
        end);
  ]

let suite =
  suite @ minimize_tests
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~long:false p) minimize_props
