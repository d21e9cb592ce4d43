(* The deployment checker (Asc_core.Checker.deployment): vcache, precomp
   and cfpre armed together, the one configuration the tools run. Each
   layer's own suite checks it alone against the slow path; this one
   checks the stack they form. The runs must stay observably identical to
   the slow path, and the modeled cycles they save must be exactly the
   sum of the three cycles-saved gauges. *)

let test_every_layer_takes_traffic () =
  (* a loop that repeats a string-argument call and a control-flow chain:
     the stack must prove it faster than the slow path, with every layer
     doing some of the work and no saving left unaccounted *)
  let img =
    Fastpath.install ~program:"stack"
      {|
int main() {
  int k;
  for (k = 0; k < 20; k = k + 1) {
    int fd = open("/tmp/d", 65, 420);
    write(fd, "xy", 2);
    close(fd);
    getpid();
  }
  puts_str("done\n");
  return 3;
}
|}
  in
  let k_off, p_off, stop_off = Fastpath.run_image img in
  let k_on, p_on, stop_on = Fastpath.run_image ~config:Fastpath.Deployment img in
  (match stop_on with
   | Svm.Machine.Halted 3 -> ()
   | _ -> Alcotest.fail "deployment run did not halt with the program's status");
  Alcotest.(check bool) "same stop" true (stop_off = stop_on);
  Alcotest.(check bool) "same observable run" true
    (Fastpath.observed k_off p_off stop_off = Fastpath.observed k_on p_on stop_on);
  List.iter
    (fun layer ->
      Alcotest.(check bool)
        (Fastpath.name layer ^ " took hits")
        true
        (Fastpath.metric k_on layer "hits" > 0))
    [ Fastpath.Vcache; Fastpath.Precomp; Fastpath.Cfpre ];
  let off = Fastpath.cycles p_off and on = Fastpath.cycles p_on in
  Alcotest.(check bool) "the stack saves cycles" true (on < off);
  Alcotest.(check int) "savings are the sum of the three gauges" (off - on)
    (Fastpath.cycles_saved k_on Fastpath.Deployment)

let () =
  Alcotest.run "deployment"
    [ ( "unit",
        [ Alcotest.test_case "every layer takes traffic" `Quick test_every_layer_takes_traffic ]
      );
      ("differential", Fastpath.props Fastpath.Deployment) ]
