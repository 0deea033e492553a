(* Output checks that do not trust the layer being timed.  They run
   outside the timed spans; a failed check fails the job. *)

(* Inputs up to this count are checked on every minterm; wider ones on
   [samples] seeded random minterms. *)
let exhaustive_max = 12
let samples = 1024

let vectors rng n =
  if n <= exhaustive_max then
    Array.init (1 lsl n) (fun code -> Array.init n (fun i -> code land (1 lsl i) <> 0))
  else Array.init samples (fun _ -> Array.init n (fun _ -> Random.State.bool rng))

(* Expected outputs on a fixed set of input vectors, computed at
   set-up from a reference that the timed layer did not produce:
   [expect] holds, per output and per vector, whether the output is
   cared for and its value there. *)
type table = {
  inputs : string list;
  vectors : bool array array;
  expect : (string * (bool * bool) array) list;
}

let env inputs =
  let index = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace index name i) inputs;
  fun v name ->
    match Hashtbl.find_opt index name with
    | Some i -> v.(i)
    | None -> invalid_arg ("unknown input " ^ name)

(* From a specification, by [Bdd.eval]: care minterms only. *)
let spec_table rng (spec : Driver.spec) =
  let vectors = vectors rng (List.length spec.Driver.input_names) in
  let point isf v = (not (Bdd.eval (Isf.dc isf) (Array.get v)), Bdd.eval (Isf.on isf) (Array.get v)) in
  {
    inputs = spec.Driver.input_names;
    vectors;
    expect = List.map (fun (o, isf) -> (o, Array.map (point isf) vectors)) spec.Driver.functions;
  }

(* From a network given as input, by [Network.eval]: every minterm
   cared for. *)
let network_table rng net =
  let inputs = List.map fst (Network.inputs net) in
  let vectors = vectors rng (List.length inputs) in
  let env = env inputs in
  let results = Array.map (fun v -> Network.eval net (env v)) vectors in
  {
    inputs;
    vectors;
    expect =
      List.map
        (fun (o, _) -> (o, Array.map (fun r -> (true, List.assoc o r)) results))
        (Network.outputs net);
  }

let simulate table net =
  let env = env table.inputs in
  let bad = ref None in
  Array.iteri
    (fun i v ->
      if !bad = None then begin
        let got = Network.eval net (env v) in
        List.iter
          (fun (o, column) ->
            let care, value = column.(i) in
            if care && !bad = None then
              match List.assoc_opt o got with
              | None -> bad := Some ("output " ^ o ^ " missing")
              | Some b -> if b <> value then bad := Some ("output " ^ o ^ " is wrong"))
          table.expect
      end)
    table.vectors;
  match !bad with None -> Ok () | Some msg -> Error msg

(* A decomposed network: every LUT has at most [k] fanins, and the
   network agrees with its specification's table. *)
let decomposition ~k table net =
  let wide =
    List.filter (fun s -> List.length (Network.fanins net s) > k) (Network.lut_signals net)
  in
  if wide <> [] then Error (Printf.sprintf "%d LUT(s) with more than %d fanins" (List.length wide) k)
  else simulate table net

(* An optimized network against its input: a SAT miter proof (the
   engine the optimizer's default BDD guard does not use) plus
   simulation against the input's table. *)
let equivalence ~table ~golden ~candidate =
  let a = Semantics.audit_sat ~golden ~candidate table.inputs in
  if a.Semantics.audit_findings <> [] || a.Semantics.outputs_unknown > 0 then
    Error
      (Printf.sprintf "SAT audit: %d refuted, %d unknown" a.Semantics.outputs_refuted
         a.Semantics.outputs_unknown)
  else simulate table candidate

(* A finding as one line of a reference file. *)
let finding_line (f : Diagnostic.t) =
  String.concat "\t"
    [
      f.Diagnostic.code;
      Diagnostic.severity_name f.Diagnostic.severity;
      Option.value ~default:"" f.Diagnostic.loc;
      f.Diagnostic.message;
    ]

let code_loc line =
  match String.split_on_char '\t' line with
  | code :: _ :: loc :: _ -> (code, loc)
  | _ -> (line, "")

(* Exact-engine findings equal the reference; windowed findings are a
   subset of it by code and location (a window proves less, so its
   messages may list fewer rows). *)
let findings ~exact ~reference found =
  let found = List.sort compare (List.map finding_line found) in
  if exact then
    if found = reference then Ok ()
    else Error (Printf.sprintf "%d findings, reference has %d" (List.length found) (List.length reference))
  else begin
    let known = Hashtbl.create 256 in
    List.iter (fun l -> Hashtbl.replace known (code_loc l) ()) reference;
    match List.filter (fun l -> not (Hashtbl.mem known (code_loc l))) found with
    | [] -> Ok ()
    | extra :: _ as l ->
        Error (Printf.sprintf "%d findings not in the reference, e.g. %s" (List.length l) extra)
  end
