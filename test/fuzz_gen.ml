(* Crash-freedom properties for the decoders of outside bytes. Over
   arbitrary byte strings, and over random sequences of the decoder's
   own tokens (which get much further into a grammar than random
   bytes do), [decode] must return [Ok] or [Error] and never raise.
   With [~record:true] each token is a ["key":value] member and a
   sequence is one JSON object of them, so a record decoder behind
   [Obs.Json.parse] sees its own fields with hostile values. With
   [~records:join] a sequence is up to eight such objects, joined by
   [join] into one file (a trace array, an event log). *)

let bytes_gen = QCheck.Gen.(string_size ~gen:char (int_bound 200))

let tokens_gen ?(record = false) ?records vocab =
  let tokens = QCheck.Gen.(list_size (int_bound 40) (oneofl vocab)) in
  let one_record =
    QCheck.Gen.map (fun ms -> "{" ^ String.concat "," ms ^ "}") tokens
  in
  match records with
  | Some join ->
    QCheck.Gen.map join (QCheck.Gen.list_size (QCheck.Gen.int_bound 8) one_record)
  | None when record -> one_record
  | None -> QCheck.Gen.map (String.concat "") tokens

let crash_free ~name ~count gen decode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       (fun s ->
         match decode s with
         | Ok _ | Error _ -> true
         | exception e ->
           QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let properties ?(count = 1000) ?record ?records ~decoder ~vocab decode =
  [
    crash_free ~count ~name:(decoder ^ " never raises on arbitrary bytes")
      bytes_gen decode;
    crash_free ~count
      ~name:(decoder ^ " never raises on random token sequences")
      (tokens_gen ?record ?records vocab) decode;
  ]
