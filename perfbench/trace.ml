(* In-memory span recorder for the traced run.

   A span covers one call into a library layer, made from the
   benchmark's own code.  Its name is "<layer>.<what>", so the layer is
   the prefix up to the first dot.  Phase clocks the program keeps
   itself (Stats phases, the coverage wall fields of the semantic
   analyzer) are aggregates without their own start and end; they are
   recorded as synthetic children of the call that produced them, laid
   end to end from the parent's start. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  job : int;
  round : int;
  name : string;
  start : float;
  stop : float;
  synthetic : bool;
}

type child = Child of string * float * child list

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let job = ref 0
let round = ref 0

let fresh () =
  incr next_id;
  !next_id

let rec add_children parent start children =
  ignore
    (List.fold_left
       (fun t0 (Child (name, dur, grand)) ->
         let id = fresh () in
         spans :=
           {
             id;
             parent;
             job = !job;
             round = !round;
             name;
             start = t0;
             stop = t0 +. dur;
             synthetic = true;
           }
           :: !spans;
         add_children id t0 grand;
         t0 +. dur)
       start children)

(* [span name f] runs [f] and, when tracing, records it; [children]
   turns the call's result into phase-clock child records. *)
let span ?(children = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = !current in
    current := id;
    let start = Mono.now () in
    let result = Fun.protect ~finally:(fun () -> current := parent) f in
    let stop = Mono.now () in
    spans :=
      { id; parent; job = !job; round = !round; name; start; stop; synthetic = false }
      :: !spans;
    add_children id start (children result);
    result
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus that of its direct
   children. *)
let self_times all =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    all;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)))
    all

(* One JSON object per line, in recording order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.int s.id);
                ("parent", Json.int s.parent);
                ("job", Json.int s.job);
                ("round", Json.int s.round);
                ("name", Json.Str s.name);
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("synthetic", Json.Bool s.synthetic);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc
