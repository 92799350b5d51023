(* Crash-freedom properties for the decoders of outside bytes. Over
   arbitrary byte strings, and over random sequences of the decoder's
   own tokens (which get much further into a grammar than random
   bytes do), [decode] must return [Ok] or [Error] and never raise.
   With [~record:true] each token is a ["key":value] member and a
   sequence is one JSON object of them, so a record decoder behind
   [Obs.Json.parse] sees its own fields with hostile values. *)

let bytes_gen = QCheck.Gen.(string_size ~gen:char (int_bound 200))

let tokens_gen ?(record = false) vocab =
  let tokens = QCheck.Gen.(list_size (int_bound 40) (oneofl vocab)) in
  if record then
    QCheck.Gen.map (fun ms -> "{" ^ String.concat "," ms ^ "}") tokens
  else QCheck.Gen.map (String.concat "") tokens

let crash_free ~name ~count gen decode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       (fun s ->
         match decode s with
         | Ok _ | Error _ -> true
         | exception e ->
           QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let properties ?(count = 1000) ?record ~decoder ~vocab decode =
  [
    crash_free ~count ~name:(decoder ^ " never raises on arbitrary bytes")
      bytes_gen decode;
    crash_free ~count
      ~name:(decoder ^ " never raises on random token sequences")
      (tokens_gen ?record vocab) decode;
  ]
