from bench import use_src

use_src()
