(* Stable variable numbering. *)

let test_allocation_monotone () =
  let m = Bmc.Varmap.create () in
  let v0 = Bmc.Varmap.var m ~node:3 ~frame:0 in
  let v1 = Bmc.Varmap.var m ~node:7 ~frame:0 in
  let v2 = Bmc.Varmap.var m ~node:3 ~frame:1 in
  Alcotest.(check (list int)) "dense in allocation order" [ 0; 1; 2 ] [ v0; v1; v2 ];
  Alcotest.(check int) "count" 3 (Bmc.Varmap.num_vars m)

let test_stable_lookup () =
  let m = Bmc.Varmap.create () in
  let v = Bmc.Varmap.var m ~node:5 ~frame:2 in
  Alcotest.(check int) "same var on re-lookup" v (Bmc.Varmap.var m ~node:5 ~frame:2);
  Alcotest.(check int) "no extra allocation" 1 (Bmc.Varmap.num_vars m)

let test_reverse () =
  let m = Bmc.Varmap.create () in
  let v = Bmc.Varmap.var m ~node:9 ~frame:4 in
  Alcotest.(check (option (pair int int))) "key_of" (Some (9, 4)) (Bmc.Varmap.key_of m v);
  Alcotest.(check (option (pair int int))) "unknown var" None (Bmc.Varmap.key_of m 99)

let test_negative_frame () =
  let m = Bmc.Varmap.create () in
  Alcotest.check_raises "negative frame" (Invalid_argument "Varmap.var: negative frame")
    (fun () -> ignore (Bmc.Varmap.var m ~node:0 ~frame:(-1)))

let prop_bijective =
  QCheck.Test.make ~name:"forward and reverse maps agree" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 20) (int_bound 10)))
    (fun keys ->
      let m = Bmc.Varmap.create () in
      List.for_all
        (fun (node, frame) ->
          let v = Bmc.Varmap.var m ~node ~frame in
          Bmc.Varmap.key_of m v = Some (node, frame))
        keys)

let tests =
  [
    Alcotest.test_case "monotone allocation" `Quick test_allocation_monotone;
    Alcotest.test_case "stable lookup" `Quick test_stable_lookup;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "negative frame" `Quick test_negative_frame;
    QCheck_alcotest.to_alcotest prop_bijective;
  ]
