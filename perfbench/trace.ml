(* Wall-clock instrumentation taken from outside the program's layers.

   Every figure is recorded around a call into a layer's public functions;
   nothing inside the program is instrumented.  Two kinds of record exist:

   - accumulators: named sums (seconds, counts) that feed the per-layer
     table;
   - spans (name, start, end, parent), kept in memory only in a traced run
     and written out when the run ends.

   The untraced run never calls into this module on a hot path: it runs the
   raw backends and compiles without an observer (see [Timed]). *)

let now = Unix.gettimeofday
let tracing = ref false

(* ---- accumulators ---- *)

let table : (string, float ref) Hashtbl.t = Hashtbl.create 256

let cell name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.add table name r;
    r

let add name v =
  let r = cell name in
  r := !r +. v

let get name = match Hashtbl.find_opt table name with Some r -> !r | None -> 0.0

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let open_spans = ref []
let next_id = ref 1

let enter name =
  let parent = match !open_spans with s :: _ -> s.id | [] -> 0 in
  let s = { id = !next_id; parent; name; start = now (); stop = nan } in
  incr next_id;
  open_spans := s :: !open_spans;
  s

let leave s =
  s.stop <- now ();
  open_spans := List.tl !open_spans;
  spans := s :: !spans

let span name f =
  if not !tracing then f ()
  else begin
    let s = enter name in
    match f () with
    | r ->
      leave s;
      r
    | exception e ->
      leave s;
      raise e
  end

(* One phase of a round (setup, compile, tune, sim, exec): a span plus the
   phase's allocation and major-collection deltas from [Gc.quick_stat],
   less what the calibration units inside it caused. *)
let phase name f =
  let g0 = Gc.quick_stat () in
  let w0 = !Calib.minor_words and c0 = !Calib.major_collections in
  let r = span name f in
  let g1 = Gc.quick_stat () in
  add
    ("gc." ^ name ^ ".minor_mwords")
    ((g1.Gc.minor_words -. g0.Gc.minor_words -. (!Calib.minor_words -. w0)) /. 1e6);
  add
    ("gc." ^ name ^ ".major_collections")
    (float_of_int
       (g1.Gc.major_collections - g0.Gc.major_collections
       - (!Calib.major_collections - c0)));
  r

(* Spans as JSON lines in the order they ended; times in seconds from
   [origin]. *)
let write_spans ~origin path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name (s.start -. origin) (s.stop -. origin))
    (List.rev !spans);
  close_out oc;
  List.length !spans
