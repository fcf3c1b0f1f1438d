let () =
  Alcotest.run "objpool"
    [
      ("magazine", Test_magazine.suite);
      ("depot", Test_depot.suite);
      ("pool", Test_pool.suite);
    ]
