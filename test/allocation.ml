(* [measure f] is [(f (), the bytes f allocated)]. Under OCaml 5.1
   [Gc.allocated_bytes] counts only part of the minor heap's fill until
   the next minor collection, so a window holding one reads most of the
   fill from before it: 1.8 MB around a call that allocates 3 kB.
   Collecting on both sides makes the count exact. *)
let measure f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. before)
