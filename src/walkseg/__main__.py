"""``python -m walkseg`` runs the command-line front end, `walkseg.cli`."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
