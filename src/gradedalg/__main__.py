"""``python -m gradedalg``: the command-line interface."""
from .cli import main

main()
