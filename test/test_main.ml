let () =
  Alcotest.run "isched"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("ir", Test_ir.suite);
      ("frontend", Test_frontend.suite);
      ("deps", Test_deps.suite);
      ("transform", Test_transform.suite);
      ("sync", Test_sync.suite);
      ("codegen", Test_codegen.suite);
      ("dfg", Test_dfg.suite);
      ("sched", Test_scheduler.suite);
      ("exec", Test_exec.suite);
      ("sim", Test_sim.suite);
      ("check", Test_check.suite);
      ("perfect", Test_perfect.suite);
      ("harness", Test_harness.suite);
      ("provenance", Test_provenance.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_props.suite);
      ("serve", Test_serve.suite);
      ("prepare", Test_prepare.suite);
    ]
