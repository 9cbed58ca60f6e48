"""python -m threebraid: the command-line interface of threebraid.cli."""

from .cli import main

if __name__ == "__main__":
    main()
