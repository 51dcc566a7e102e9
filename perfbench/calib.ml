(* Machine-speed calibration.

   The benchmark shares a host with other machines' work, and the speed it
   gets moves by half or more between minutes and by a quarter between
   moments a few hundred milliseconds apart; every kind of work the program
   does slows down and speeds up together.  So every timed sample is paired
   with the time of a fixed calibration unit measured right before it (and
   right after it when the sample is long), and an end-to-end timing is
   reported as seconds at reference speed:

     sample seconds * reference_s / calibration seconds

   The unit is this file's own code and nothing of the program: a
   Shoup-style modular butterfly loop over a cache-resident integer array
   (the shape of the NTT and key-switch kernels) followed by a burst of
   short-lived allocation into a balanced map (the shape of the compiler and
   the interpreter).  A change to the program moves a normalised figure
   exactly as it moves the raw one; a change of the machine's speed moves
   both the sample and the unit.  Raw seconds are printed beside every
   normalised figure. *)

let now = Unix.gettimeofday

(* What one unit takes on a machine at reference speed: about its median on
   the 2-vCPU machine described in README.md, when that machine is in its
   faster state. *)
let reference_s = 0.025

let buf = Array.init (2048 * 17) (fun i -> (i * 7919) land 0x3fffffff)

let arith () =
  let m = 2147483629 and w = 123456789 in
  let w' = (w lsl 31) / m in
  let half = Array.length buf / 2 in
  for _ = 1 to 150 do
    for j = 0 to half - 1 do
      let x = buf.(j) and y = buf.(j + half) in
      let q = (y * w') lsr 31 in
      let t = (y * w) - (q * m) in
      let t = if t >= m then t - m else t in
      let s = x + t in
      buf.(j) <- (if s >= m then s - m else s);
      let d = x - t in
      buf.(j + half) <- (if d < 0 then d + m else d)
    done
  done

module Int_map = Map.Make (Int)

let alloc () =
  let m = ref Int_map.empty in
  for i = 0 to 20_000 do
    m := Int_map.add ((i * 7919) land 0xffff) [ i; i + 1 ] !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m))

(* Minor words and major collections the units caused, so a traced run can
   leave them out of its per-phase GC figures. *)
let minor_words = ref 0.0
let major_collections = ref 0

(* The seconds of every unit measured, newest first. *)
let units : float list ref = ref []
let last_s = ref nan
let last_at = ref neg_infinity

let unit () =
  let g0 = Gc.quick_stat () in
  Gc.minor ();
  let t0 = now () in
  arith ();
  alloc ();
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  major_collections :=
    !major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  last_s := t1 -. t0;
  last_at := t1;
  units := !last_s :: !units;
  !last_s

(* A sample starting within [fresh_s] of the last unit shares it, so a
   burst of short samples (one program compiled several times) pays for one
   unit. *)
let fresh_s = 0.05

let before () = if now () -. !last_at > fresh_s then unit () else !last_s

(* A sample longer than [fresh_s] is followed by one unit per quarter
   second it lasted (at most five): the machine's speed changes within a
   long sample, and one reading of the unit would scale it by a moment. *)
let after ~elapsed =
  if elapsed <= fresh_s then []
  else List.init (max 1 (min 5 (int_of_float (elapsed /. 0.25)))) (fun _ -> unit ())

type timing = { raw : float; norm : float }

(* [f ()], timed: its result, and its raw seconds and seconds at reference
   speed.  Every sample starts from an empty minor heap, so a short step
   pays for the collections its own allocation causes and not for a heap
   left part-full by the step before. *)
let time f =
  let c0 = before () in
  Gc.minor ();
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  let cs = c0 :: after ~elapsed:raw in
  let c = List.fold_left ( +. ) 0.0 cs /. float_of_int (List.length cs) in
  (r, { raw; norm = raw *. reference_s /. c })
