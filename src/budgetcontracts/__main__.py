"""``python -m budgetcontracts``: the command-line front end."""

import sys

from budgetcontracts.cli import main

if __name__ == "__main__":
    sys.exit(main())
