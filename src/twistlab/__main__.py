from twistlab.cli import main

raise SystemExit(main())
