(* Tests for the ROBDD substrate: unit cases plus property tests that
   compare every operation against the dense truth-table oracle [Bv]. *)

let man = Bdd.manager ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Random BDD generator paired with its truth table, over [n] variables. *)
let gen_fun n =
  let open QCheck2.Gen in
  let+ bits = list_size (return (1 lsl n)) bool in
  let arr = Array.of_list bits in
  Bv.of_fun n (fun i -> arr.(i))

let bdd_of_bv bv = Bv.to_bdd man bv

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

let nvars_default = 6

let basic_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check_bool "zero is zero" true (Bdd.is_zero (Bdd.zero man));
        check_bool "one is one" true (Bdd.is_one (Bdd.one man));
        check_bool "zero <> one" false (Bdd.equal (Bdd.zero man) (Bdd.one man)));
    Alcotest.test_case "var / nvar" `Quick (fun () ->
        let x = Bdd.var man 0 in
        check_bool "x(1)=1" true (Bdd.eval x (fun _ -> true));
        check_bool "x(0)=0" false (Bdd.eval x (fun _ -> false));
        check_bool "nvar = not var" true
          (Bdd.equal (Bdd.nvar man 0) (Bdd.not_ man x)));
    Alcotest.test_case "hash consing" `Quick (fun () ->
        let a = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let b = Bdd.and_ man (Bdd.var man 1) (Bdd.var man 0) in
        check_bool "structural sharing" true (Bdd.equal a b);
        check_int "same id" (Bdd.id a) (Bdd.id b));
    Alcotest.test_case "de morgan" `Quick (fun () ->
        let x = Bdd.var man 0 and y = Bdd.var man 1 in
        check_bool "not(x/\\y) = notx \\/ noty" true
          (Bdd.equal
             (Bdd.not_ man (Bdd.and_ man x y))
             (Bdd.or_ man (Bdd.not_ man x) (Bdd.not_ man y))));
    Alcotest.test_case "xor of var with itself" `Quick (fun () ->
        let x = Bdd.var man 3 in
        check_bool "x xor x = 0" true (Bdd.is_zero (Bdd.xor man x x)));
    Alcotest.test_case "ite as mux" `Quick (fun () ->
        let s = Bdd.var man 0 and a = Bdd.var man 1 and b = Bdd.var man 2 in
        let mux = Bdd.ite man s a b in
        check_bool "sel=1" true
          (Bdd.eval mux (fun v -> v = 0 || v = 1));
        check_bool "sel=0" false (Bdd.eval mux (fun v -> v = 1 && false)));
    Alcotest.test_case "support" `Quick (fun () ->
        let f =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 1) (Bdd.var man 4))
            (Bdd.var man 2)
        in
        Alcotest.(check (list int)) "support" [ 1; 2; 4 ] (Bdd.support man f);
        check_bool "depends on 4" true (Bdd.depends_on f 4);
        check_bool "not on 0" false (Bdd.depends_on f 0);
        check_bool "not on 3" false (Bdd.depends_on f 3));
    Alcotest.test_case "restrict removes variable" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
        let f0 = Bdd.restrict man f 0 false in
        check_bool "f|x0=0 = x1" true (Bdd.equal f0 (Bdd.var man 1));
        let f1 = Bdd.restrict man f 0 true in
        check_bool "f|x0=1 = not x1" true (Bdd.equal f1 (Bdd.nvar man 1)));
    Alcotest.test_case "exists / forall" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        check_bool "exists x0 (x0 /\\ x1) = x1" true
          (Bdd.equal (Bdd.exists man [ 0 ] f) (Bdd.var man 1));
        check_bool "forall x0 (x0 /\\ x1) = 0" true
          (Bdd.is_zero (Bdd.forall man [ 0 ] f)));
    Alcotest.test_case "compose" `Quick (fun () ->
        let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
        let g = Bdd.and_ man (Bdd.var man 2) (Bdd.var man 3) in
        let h = Bdd.compose man f 0 g in
        check_bool "compose = xor(and(x2,x3),x1)" true
          (Bdd.equal h (Bdd.xor man g (Bdd.var man 1))));
    Alcotest.test_case "sat_count" `Quick (fun () ->
        let f = Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1) in
        Alcotest.(check (float 0.0)) "or has 3 models over 2 vars" 3.0
          (Bdd.sat_count man f ~nvars:2);
        Alcotest.(check (float 0.0)) "or over 4 vars" 12.0
          (Bdd.sat_count man f ~nvars:4);
        Alcotest.(check (float 0.0)) "x3 over 4 vars" 8.0
          (Bdd.sat_count man (Bdd.var man 3) ~nvars:4));
    Alcotest.test_case "any_sat" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 2) in
        let path = Bdd.any_sat f in
        let assignment v = List.assoc_opt v path = Some true in
        check_bool "path satisfies" true (Bdd.eval f assignment);
        check_bool "zero raises" true
          (match Bdd.any_sat (Bdd.zero man) with
          | exception Not_found -> true
          | _ -> false));
    Alcotest.test_case "swap_vars" `Quick (fun () ->
        (* f = x0 /\ not x1: swapping gives x1 /\ not x0 *)
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.nvar man 1) in
        let g = Bdd.swap_vars man f 0 1 in
        check_bool "swap" true
          (Bdd.equal g (Bdd.and_ man (Bdd.var man 1) (Bdd.nvar man 0))));
    Alcotest.test_case "negate_var" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let g = Bdd.negate_var man f 0 in
        check_bool "negate" true
          (Bdd.equal g (Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 1))));
    Alcotest.test_case "cofactor_vector indexing" `Quick (fun () ->
        (* f = x1 (second var of the bound list [0;1]): index 1 (x0=0,x1=1)
           and index 3 (x0=1,x1=1) must be one. *)
        let f = Bdd.var man 1 in
        let vec = Bdd.cofactor_vector man f [ 0; 1 ] in
        check_bool "i=0" true (Bdd.is_zero vec.(0));
        check_bool "i=1" true (Bdd.is_one vec.(1));
        check_bool "i=2" true (Bdd.is_zero vec.(2));
        check_bool "i=3" true (Bdd.is_one vec.(3)));
    Alcotest.test_case "of_vector inverse of cofactor_vector" `Quick (fun () ->
        let f =
          Bdd.or_ man
            (Bdd.and_ man (Bdd.var man 0) (Bdd.var man 2))
            (Bdd.xor man (Bdd.var man 1) (Bdd.var man 3))
        in
        let vars = [ 0; 1 ] in
        let vec = Bdd.cofactor_vector man f vars in
        check_bool "roundtrip" true (Bdd.equal (Bdd.of_vector man vars vec) f));
    Alcotest.test_case "minterm_of_code" `Quick (fun () ->
        let mt = Bdd.minterm_of_code man [ 0; 1; 2 ] 0b101 in
        check_bool "101 sat" true
          (Bdd.eval mt (fun v -> v = 0 || v = 2));
        Alcotest.(check (float 0.0)) "single minterm" 1.0
          (Bdd.sat_count man mt ~nvars:3));
    Alcotest.test_case "size of parity chain" `Quick (fun () ->
        let f =
          List.fold_left
            (fun acc v -> Bdd.xor man acc (Bdd.var man v))
            (Bdd.zero man) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        (* Parity has 2 nodes per level except the last. *)
        check_int "parity size" 15 (Bdd.size f));
    Alcotest.test_case "to_dot produces a digraph" `Quick (fun () ->
        let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
        let dot = Bdd.to_dot [ f ] in
        check_bool "digraph" true
          (String.length dot > 10 && String.sub dot 0 7 = "digraph"));
  ]

(* Properties against the truth-table oracle. *)
let oracle_props =
  let n = nvars_default in
  let gen2 = QCheck2.Gen.pair (gen_fun n) (gen_fun n) in
  let gen3 = QCheck2.Gen.triple (gen_fun n) (gen_fun n) (gen_fun n) in
  [
    prop "of_bdd . to_bdd = id" (gen_fun n) (fun bv ->
        Bv.equal bv (Bv.of_bdd n (bdd_of_bv bv)));
    prop "and agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.and_ a b)
          (Bv.of_bdd n (Bdd.and_ man (bdd_of_bv a) (bdd_of_bv b))));
    prop "or agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.or_ a b)
          (Bv.of_bdd n (Bdd.or_ man (bdd_of_bv a) (bdd_of_bv b))));
    prop "xor agrees with oracle" gen2 (fun (a, b) ->
        Bv.equal (Bv.xor a b)
          (Bv.of_bdd n (Bdd.xor man (bdd_of_bv a) (bdd_of_bv b))));
    prop "not agrees with oracle" (gen_fun n) (fun a ->
        Bv.equal (Bv.not_ a) (Bv.of_bdd n (Bdd.not_ man (bdd_of_bv a))));
    prop "ite agrees with oracle" gen3 (fun (a, b, c) ->
        let expected = Bv.or_ (Bv.and_ a b) (Bv.and_ (Bv.not_ a) c) in
        Bv.equal expected
          (Bv.of_bdd n
             (Bdd.ite man (bdd_of_bv a) (bdd_of_bv b) (bdd_of_bv c))));
    prop "canonicity: equal truth tables give equal nodes" gen2 (fun (a, b) ->
        Bv.equal a b = Bdd.equal (bdd_of_bv a) (bdd_of_bv b));
    prop "restrict agrees with cofactor"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) bool)
      (fun (a, v, b) ->
        Bv.equal (Bv.cofactor a v b)
          (Bv.of_bdd n (Bdd.restrict man (bdd_of_bv a) v b)));
    prop "sat_count agrees with count_ones" (gen_fun n) (fun a ->
        int_of_float (Bdd.sat_count man (bdd_of_bv a) ~nvars:n)
        = Bv.count_ones a);
    prop "swap_vars is an involution"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      (fun (a, i, j) ->
        let f = bdd_of_bv a in
        Bdd.equal f (Bdd.swap_vars man (Bdd.swap_vars man f i j) i j));
    prop "swap_vars agrees with index swap"
      QCheck2.Gen.(triple (gen_fun n) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      (fun (a, i, j) ->
        let swapped_bv =
          Bv.of_fun n (fun idx ->
              let bi = (idx lsr i) land 1 and bj = (idx lsr j) land 1 in
              let idx = idx land lnot (1 lsl i) land lnot (1 lsl j) in
              Bv.get a (idx lor (bj lsl i) lor (bi lsl j)))
        in
        Bv.equal swapped_bv (Bv.of_bdd n (Bdd.swap_vars man (bdd_of_bv a) i j)));
    prop "negate_var agrees with index flip"
      QCheck2.Gen.(pair (gen_fun n) (int_range 0 (n - 1)))
      (fun (a, v) ->
        let flipped = Bv.of_fun n (fun idx -> Bv.get a (idx lxor (1 lsl v))) in
        Bv.equal flipped (Bv.of_bdd n (Bdd.negate_var man (bdd_of_bv a) v)));
    prop "exists = or of cofactors"
      QCheck2.Gen.(pair (gen_fun n) (int_range 0 (n - 1)))
      (fun (a, v) ->
        let expected = Bv.or_ (Bv.cofactor a v false) (Bv.cofactor a v true) in
        Bv.equal expected (Bv.of_bdd n (Bdd.exists man [ v ] (bdd_of_bv a))));
    prop "support is sound and complete" (gen_fun n) (fun a ->
        let f = bdd_of_bv a in
        let sup = Bdd.support man f in
        List.for_all
          (fun v ->
            let dependent = not (Bv.equal (Bv.cofactor a v false) (Bv.cofactor a v true)) in
            dependent = List.mem v sup)
          [ 0; 1; 2; 3; 4; 5 ]);
    prop "of_vector rebuilds from cofactor_vector"
      (gen_fun n)
      (fun a ->
        let f = bdd_of_bv a in
        let vars = [ 1; 3; 4 ] in
        let vec = Bdd.cofactor_vector man f vars in
        Bdd.equal f (Bdd.of_vector man vars vec));
    prop "compose agrees with oracle substitution"
      QCheck2.Gen.(pair (gen_fun n) (gen_fun n))
      (fun (a, b) ->
        (* substitute variable 0 by g(x1..x5): make g independent of x0 *)
        let g_bv = Bv.cofactor b 0 false in
        let expected =
          Bv.of_fun n (fun idx ->
              let gval = Bv.get g_bv idx in
              let idx' = if gval then idx lor 1 else idx land lnot 1 in
              Bv.get a idx')
        in
        Bv.equal expected
          (Bv.of_bdd n (Bdd.compose man (bdd_of_bv a) 0 (bdd_of_bv g_bv))));
  ]

(* Any [int] is a valid variable index: the unique table must not
   mistake a negative index for an empty slot. *)
let negative_index_tests =
  [
    Alcotest.test_case "negative variable indices stay canonical" `Quick
      (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m (-1) in
        let count = Bdd.node_count m in
        check_bool "var -1 twice is one node" true (Bdd.equal x (Bdd.var m (-1)));
        check_int "no duplicate node" count (Bdd.node_count m);
        let a = Bdd.var m 2 and b = Bdd.var m (-3) in
        let mux = Bdd.ite m x a b in
        let sop = Bdd.or_ m (Bdd.and_ m x a) (Bdd.and_ m (Bdd.not_ m x) b) in
        check_bool "ite = sum of products" true (Bdd.equal mux sop);
        check_int "smallest index on top" (-3) (Bdd.top_var mux);
        check_bool "rebuilt ite is the same node" true
          (Bdd.equal mux (Bdd.ite m (Bdd.var m (-1)) (Bdd.var m 2) (Bdd.var m (-3))));
        check_bool "restrict on a negative index" true
          (Bdd.equal (Bdd.restrict m mux (-1) true) a));
    Alcotest.test_case "counters" `Quick (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
        ignore (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1));
        let c = Bdd.counters m in
        check_bool "f built" false (Bdd.is_const f);
        check_int "inserts = nodes" (Bdd.node_count m) c.Bdd.unique_inserts;
        check_int "peak = nodes" (Bdd.node_count m) c.Bdd.peak_nodes;
        check_bool "the repeated and_ hit" true
          (c.Bdd.cache_hits >= 1 && c.Bdd.cache_lookups >= c.Bdd.cache_hits));
  ]

(* The lossy computed table must never change a result: the same
   operation sequence on a 16-entry manager (constant eviction and
   repeated table growth) and on a default one gives the same node ids,
   the same answers and the oracle's truth tables. *)
type instr =
  | I_and of int * int
  | I_or of int * int
  | I_xor of int * int
  | I_not of int
  | I_ite of int * int * int
  | I_restrict of int * int * bool
  | I_disjoint of int * int

let gen_program n =
  let open QCheck2.Gen in
  let reg = int_range 0 1000 in
  let instr =
    oneof
      [
        map2 (fun a b -> I_and (a, b)) reg reg;
        map2 (fun a b -> I_or (a, b)) reg reg;
        map2 (fun a b -> I_xor (a, b)) reg reg;
        map (fun a -> I_not a) reg;
        map3 (fun a b c -> I_ite (a, b, c)) reg reg reg;
        map3 (fun a v b -> I_restrict (a, v, b)) reg (int_range 0 (n - 1)) bool;
        map2 (fun a b -> I_disjoint (a, b)) reg reg;
      ]
  in
  list_size (int_range 1 60) instr

(* Registers start with the variables; every instruction appends its
   result.  Returns the registers and the disjointness answers. *)
let run_program m n prog =
  let regs = ref (Array.init n (Bdd.var m)) in
  let get i = !regs.(i mod Array.length !regs) in
  let push f = regs := Array.append !regs [| f |] in
  let answers =
    List.filter_map
      (fun ins ->
        match ins with
        | I_and (a, b) -> push (Bdd.and_ m (get a) (get b)); None
        | I_or (a, b) -> push (Bdd.or_ m (get a) (get b)); None
        | I_xor (a, b) -> push (Bdd.xor m (get a) (get b)); None
        | I_not a -> push (Bdd.not_ m (get a)); None
        | I_ite (a, b, c) -> push (Bdd.ite m (get a) (get b) (get c)); None
        | I_restrict (a, v, b) -> push (Bdd.restrict m (get a) v b); None
        | I_disjoint (a, b) ->
            let d = Bdd.disjoint m (get a) (get b) in
            let expected = Bdd.is_zero (Bdd.and_ m (get a) (get b)) in
            Some (d, expected))
      prog
  in
  (!regs, answers)

(* The same program on truth tables. *)
let run_oracle n prog =
  let regs = ref (Array.init n (Bv.var n)) in
  let get i = !regs.(i mod Array.length !regs) in
  let push f = regs := Array.append !regs [| f |] in
  List.iter
    (function
      | I_and (a, b) -> push (Bv.and_ (get a) (get b))
      | I_or (a, b) -> push (Bv.or_ (get a) (get b))
      | I_xor (a, b) -> push (Bv.xor (get a) (get b))
      | I_not a -> push (Bv.not_ (get a))
      | I_ite (a, b, c) ->
          push (Bv.or_ (Bv.and_ (get a) (get b)) (Bv.and_ (Bv.not_ (get a)) (get c)))
      | I_restrict (a, v, b) -> push (Bv.cofactor (get a) v b)
      | I_disjoint _ -> ())
    prog;
  !regs

let kernel_props =
  let n = 7 in
  [
    prop "tiny computed table gives the same nodes and truth tables"
      ~count:150 (gen_program n) (fun prog ->
        let tiny = Bdd.manager ~cache_size:16 () and full = Bdd.manager () in
        let rt, at = run_program tiny n prog and rf, af = run_program full n prog in
        at = af
        && List.for_all (fun (d, e) -> d = e) at
        && Array.for_all2 (fun a b -> Bdd.id a = Bdd.id b) rt rf
        && Array.for_all2
             (fun a expected -> Bv.equal (Bv.of_bdd n a) expected)
             rt (run_oracle n prog)
        && Bdd.node_count tiny = Bdd.node_count full);
  ]

exception Abort

let abort_tests =
  [
    Alcotest.test_case "growth hook abort leaves the manager canonical" `Quick
      (fun () ->
        let n = 16 in
        let m = Bdd.manager ~cache_size:16 () in
        let st = Random.State.make [| 7 |] in
        let f = Bdd.random m ~nvars:n ~density:0.5 st in
        let g = Bdd.random m ~nvars:n ~density:0.5 st in
        Bdd.set_growth_hook m (Some (fun _ -> raise Abort));
        check_bool "the hook aborted the operation" true
          (match Bdd.xor m f g with _ -> false | exception Abort -> true);
        Bdd.set_growth_hook m None;
        let h = Bdd.xor m f g in
        let h' =
          Bdd.or_ m (Bdd.and_ m f (Bdd.not_ m g)) (Bdd.and_ m (Bdd.not_ m f) g)
        in
        check_bool "equal functions, equal nodes" true (Bdd.equal h h');
        let expected = Bv.xor (Bv.of_bdd n f) (Bv.of_bdd n g) in
        check_bool "truth table" true (Bv.equal expected (Bv.of_bdd n h));
        check_bool "rebuilt from the truth table" true
          (Bdd.equal h (Bv.to_bdd m expected)));
  ]

let suite =
  basic_tests @ negative_index_tests @ abort_tests
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest ~long:false p)
      (oracle_props @ kernel_props)
