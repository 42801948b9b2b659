"""Hand-written theme word banks used by the synthetic corpus generator.

Each bank is a list of English words that co-occur within one latent theme.
The banks deliberately mirror the themes of the paper's three corpora: the
20 Newsgroups groups (space, medicine, religion, cryptography, hockey, ...),
Yahoo Answers categories (cooking, pets, gaming, relationships, ...) and New
York Times desks (mid-east conflict, Afghanistan war, NBA, markets, Spanish-
language news, ...).  A small number of words are intentionally shared
between related banks (e.g. ``government`` in guns/politics/mideast) so that
topic models face realistic topic overlap.
"""

from __future__ import annotations

THEME_BANKS: dict[str, tuple[str, ...]] = {
    # ------------------------------------------------------------------
    # 20 Newsgroups flavoured themes
    # ------------------------------------------------------------------
    "space": (
        "space", "nasa", "launch", "orbit", "earth", "moon", "shuttle",
        "satellite", "lunar", "mission", "rocket", "solar", "mars",
        "astronaut", "spacecraft", "telescope", "gravity", "payload",
        "probe", "station", "flight", "apollo", "jupiter", "comet",
        "astronomy", "propulsion", "reentry", "booster",
    ),
    "medicine": (
        "patients", "health", "medical", "disease", "cancer", "drug",
        "study", "drugs", "doctor", "treatment", "symptoms", "pain",
        "blood", "diet", "infection", "diagnosis", "therapy", "clinical",
        "medicine", "vitamin", "syndrome", "chronic", "surgery", "dose",
        "physician", "immune", "allergy", "diabetes",
    ),
    "christianity": (
        "god", "jesus", "bible", "church", "christian", "faith", "christ",
        "christians", "holy", "scripture", "sin", "heaven", "prayer",
        "gospel", "lord", "catholic", "spirit", "worship", "belief",
        "doctrine", "resurrection", "apostle", "testament", "grace",
        "salvation", "priest", "theology", "sermon",
    ),
    "atheism": (
        "atheism", "atheist", "religion", "morality", "argument",
        "evidence", "claim", "belief", "exist", "existence", "rational",
        "logic", "reason", "moral", "objective", "fallacy", "agnostic",
        "deity", "dogma", "skeptic", "proof", "premise", "philosophy",
        "assertion", "debate", "secular",
    ),
    "mideast": (
        "israel", "jews", "israeli", "war", "jewish", "arab", "state",
        "land", "palestinian", "peace", "arabs", "lebanon", "occupation",
        "territory", "zionism", "settlement", "gaza", "syria", "border",
        "conflict", "refugees", "homeland", "treaty", "militia",
    ),
    "guns": (
        "gun", "guns", "weapon", "weapons", "firearms", "police", "crime",
        "criminal", "amendment", "rights", "control", "law", "defense",
        "shooting", "rifle", "pistol", "ammunition", "permit", "militia",
        "homicide", "legislation", "ban", "ownership", "holster",
    ),
    "armenia": (
        "armenian", "armenians", "turkish", "turkey", "genocide",
        "azerbaijan", "turks", "armenia", "greek", "ottoman", "massacre",
        "soviet", "muslims", "villages", "azeri", "karabakh", "empire",
        "deportation", "anatolia", "caucasus", "istanbul", "nagorno",
    ),
    "cryptography": (
        "key", "encryption", "chip", "keys", "clipper", "security",
        "privacy", "escrow", "algorithm", "nsa", "cipher", "secret",
        "crypto", "des", "rsa", "wiretap", "decrypt", "encrypt",
        "cryptography", "protocol", "backdoor", "plaintext", "secure",
        "surveillance",
    ),
    "hockey": (
        "hockey", "nhl", "goal", "puck", "ice", "penguins", "rangers",
        "playoff", "playoffs", "goalie", "leafs", "bruins", "detroit",
        "wings", "canadiens", "skate", "defenseman", "overtime",
        "espn", "stanley", "cup", "period", "shots", "roster",
    ),
    "baseball": (
        "baseball", "pitcher", "braves", "hitter", "runs", "pitching",
        "yankees", "mets", "inning", "hit", "batting", "league",
        "season", "game", "team", "players", "stats", "catcher",
        "outfield", "bullpen", "shortstop", "homer", "strikeout", "cubs",
    ),
    "graphics": (
        "image", "graphics", "images", "jpeg", "color", "gif", "format",
        "picture", "bit", "files", "file", "animation", "pixel",
        "polygon", "conversion", "viewer", "tiff", "render", "scanner",
        "shareware", "bitmap", "resolution", "palette", "rgb",
    ),
    "windows_os": (
        "windows", "dos", "file", "program", "files", "driver", "drivers",
        "microsoft", "version", "application", "running", "memory",
        "swap", "mode", "utility", "directory", "install", "config",
        "desktop", "shell", "menu", "icon", "crash", "patch",
    ),
    "pc_hardware": (
        "drive", "scsi", "disk", "hard", "controller", "drives", "bus",
        "floppy", "ide", "card", "motherboard", "ram", "bios", "cpu",
        "mhz", "jumper", "cache", "slot", "isa", "port", "modem",
        "monitor", "vga", "upgrade",
    ),
    "mac_hardware": (
        "mac", "apple", "quadra", "centris", "powerbook", "simms",
        "duo", "monitor", "nubus", "adb", "lciii", "macs", "vram",
        "system", "fpu", "keyboard", "mouse", "printer", "appletalk",
        "serial", "scsi", "expansion", "internal",
    ),
    "xwindows": (
        "server", "motif", "application", "widget", "export", "client",
        "xterm", "unix", "display", "window", "openwindows", "font",
        "sunos", "xlib", "usr", "lib", "screen", "session", "manager",
        "toolkit", "resources", "binaries", "compile", "xfree",
    ),
    "electronics": (
        "circuit", "voltage", "amp", "battery", "power", "wire",
        "signal", "output", "input", "radio", "frequency", "resistor",
        "capacitor", "chip", "audio", "ground", "electronics", "volt",
        "transistor", "oscillator", "antenna", "detector", "supply",
    ),
    "autos": (
        "car", "cars", "engine", "dealer", "ford", "oil", "mileage",
        "tires", "toyota", "honda", "brake", "brakes", "wheel",
        "transmission", "vehicle", "driving", "clutch", "sedan",
        "warranty", "convertible", "mustang", "rust", "exhaust",
    ),
    "motorcycles": (
        "bike", "motorcycle", "ride", "riding", "helmet", "bikes",
        "bmw", "rider", "dod", "yamaha", "honda", "harley", "kawasaki",
        "dirt", "seat", "gloves", "gear", "throttle", "passenger",
        "highway", "wheelie", "countersteering",
    ),
    "forsale": (
        "sale", "offer", "shipping", "condition", "asking", "sell",
        "price", "email", "interested", "items", "includes", "obo",
        "manual", "brand", "box", "mint", "postage", "stereo",
        "cassette", "packaging", "bundle", "auction",
    ),
    "us_politics": (
        "president", "clinton", "government", "congress", "tax", "taxes",
        "house", "senate", "administration", "bill", "jobs", "economy",
        "budget", "deficit", "federal", "policy", "campaign", "vote",
        "republican", "democrat", "reform", "senator", "legislation",
    ),
    "waco": (
        "fbi", "koresh", "fire", "waco", "batf", "compound", "davidians",
        "agents", "cult", "raid", "siege", "hostages", "gas", "atf",
        "warrant", "branch", "standoff", "tear", "assault", "children",
        "investigation", "tanks",
    ),
    # ------------------------------------------------------------------
    # Yahoo Answers flavoured themes
    # ------------------------------------------------------------------
    "cooking": (
        "cup", "add", "salt", "minutes", "sugar", "butter", "mix",
        "cream", "oil", "cheese", "sauce", "pepper", "garlic", "juice",
        "flour", "bake", "oven", "recipe", "chicken", "onion", "dough",
        "boil", "simmer", "preheat", "parmesan", "mozzarella", "saute",
        "grated", "browned", "baking", "chocolate",
    ),
    "dieting": (
        "weight", "body", "fat", "lose", "eat", "healthy", "exercise",
        "calories", "diet", "eating", "foods", "protein", "carbs",
        "muscle", "workout", "gym", "metabolism", "meals", "snack",
        "pounds", "fitness", "nutrition", "cardio", "hunger",
    ),
    "pets": (
        "dog", "dogs", "cat", "cats", "vet", "puppy", "feed", "pet",
        "animals", "kitten", "breed", "food", "litter", "toys",
        "training", "leash", "fur", "paws", "veterinarian", "adopt",
        "shelter", "fleas", "groom", "bark",
    ),
    "relationships": (
        "love", "girlfriend", "boyfriend", "friend", "relationship",
        "feelings", "talk", "together", "heart", "marriage", "dating",
        "breakup", "trust", "crush", "divorce", "jealous", "romantic",
        "partner", "commitment", "flirt", "honesty", "apology",
    ),
    "finance": (
        "money", "credit", "bank", "loan", "pay", "account", "debt",
        "interest", "card", "insurance", "mortgage", "invest", "savings",
        "stock", "salary", "rent", "budget", "refund", "paycheck",
        "bankruptcy", "dividend", "retirement", "taxes",
    ),
    "gadgets": (
        "phone", "ipod", "music", "song", "itunes", "cell", "plan",
        "number", "send", "email", "mail", "text", "download", "mp3",
        "ringtone", "bluetooth", "charger", "sim", "verizon", "nokia",
        "battery", "headphones", "speaker", "sync",
    ),
    "gaming": (
        "pokemon", "game", "games", "xbox", "ps2", "nintendo", "wii",
        "console", "level", "player", "diamond", "pearl", "trade",
        "battle", "cheat", "codes", "controller", "online", "halo",
        "zelda", "shiny", "quest", "unlock", "multiplayer",
    ),
    "computers_help": (
        "laptop", "pc", "card", "memory", "graphics", "ram", "processor",
        "pentium", "mhz", "nvidia", "ghz", "intel", "geforce", "screen",
        "virus", "install", "software", "update", "wireless", "router",
        "browser", "firewall", "desktop", "gigabyte",
    ),
    "fashion": (
        "wear", "shoes", "shirt", "outfit", "dress", "jeans", "stores",
        "style", "clothes", "fashion", "abercrombie", "aeropostale",
        "pacsun", "store", "brand", "hollister", "skirt", "makeup",
        "accessories", "jacket", "sneakers", "trendy",
    ),
    "wrestling": (
        "wwe", "cena", "batista", "hhh", "khali", "umaga", "orton",
        "wrestling", "wrestler", "match", "champion", "raw", "smackdown",
        "wrestlemania", "title", "belt", "undertaker", "ring", "feud",
        "heel", "promo", "tagteam",
    ),
    "education": (
        "school", "college", "class", "teacher", "grade", "student",
        "study", "exam", "homework", "university", "degree", "courses",
        "semester", "tuition", "scholarship", "essay", "math",
        "science", "history", "diploma", "professor", "campus",
    ),
    "travel": (
        "trip", "travel", "hotel", "flight", "vacation", "airport",
        "ticket", "beach", "city", "tour", "passport", "visa",
        "luggage", "resort", "cruise", "destination", "booking",
        "itinerary", "sightseeing", "hostel", "airline", "abroad",
    ),
    # ------------------------------------------------------------------
    # NYTimes flavoured themes
    # ------------------------------------------------------------------
    "israel_palestine": (
        "palestinian", "israeli", "israel", "arafat", "yasser", "peace",
        "sharon", "israelis", "jerusalem", "arab", "westbank", "hamas",
        "intifada", "barak", "negotiations", "violence", "settlers",
        "ceasefire", "plo", "diplomacy", "summit", "truce",
    ),
    "afghan_war": (
        "military", "army", "taliban", "afghanistan", "forces", "war",
        "troop", "soldier", "laden", "afghan", "bin", "pakistan",
        "islamic", "osama", "terrorism", "qaeda", "kabul", "bombing",
        "pentagon", "airstrikes", "insurgents", "alliance",
    ),
    "russia": (
        "russian", "russia", "soviet", "vladimir", "putin", "moscow",
        "union", "chechnya", "kremlin", "yeltsin", "communist",
        "oligarch", "chechen", "siberia", "grozny", "duma", "tsar",
        "perestroika", "rubles", "gazprom",
    ),
    "markets": (
        "stock", "market", "percent", "shares", "investors", "company",
        "billion", "earnings", "nasdaq", "dow", "economy", "profit",
        "quarter", "analysts", "trading", "index", "bonds", "rally",
        "recession", "inflation", "merger", "acquisition",
    ),
    "film": (
        "film", "movie", "character", "actor", "movies", "comedy",
        "starring", "hollywood", "director", "screenplay", "drama",
        "audience", "oscar", "studio", "script", "premiere", "sequel",
        "documentary", "cinema", "box", "actress", "producer",
    ),
    "nba": (
        "laker", "nba", "neal", "shaquille", "bryant", "kobe", "phil",
        "jackson", "basketball", "knicks", "points", "rebounds",
        "celtics", "spurs", "finals", "coach", "guard", "forward",
        "dunk", "jumper", "timeout", "quarter",
    ),
    "nfl": (
        "game", "coach", "quarterback", "yard", "football", "bowl",
        "touchdown", "defensive", "offense", "receiver", "giants",
        "jets", "kicker", "fumble", "interception", "linebacker",
        "playoffs", "stadium", "huddle", "punt", "snap",
    ),
    "golf": (
        "pga", "bogey", "birdie", "birdies", "putt", "fairway", "par",
        "tee", "golf", "woods", "tournament", "hole", "round", "stroke",
        "caddie", "green", "bunker", "clubhouse", "masters", "leaderboard",
    ),
    "spanish_news": (
        "economia", "dedicada", "notas", "cubrir", "transmiten",
        "comercio", "temas", "expertos", "informacion", "telefono",
        "dicen", "algunos", "tienen", "estan", "para", "gran", "entre",
        "anos", "parte", "nuevas", "clase", "tiempos",
    ),
    "mlb_angels": (
        "erstad", "spiezio", "glaus", "bengie", "schoeneweis", "darin",
        "disarcina", "garret", "anaheim", "angels", "molina", "salmon",
        "percival", "scioscia", "anderson", "washburn", "rally",
        "clubhouse", "lineup", "bullpen",
    ),
}

# Generic words that appear across every theme: the "background" unigram
# distribution of a corpus.  These words carry no topical signal and give
# topic models something to explain away.
BACKGROUND_BANK: tuple[str, ...] = (
    "time", "people", "good", "make", "way", "think", "know", "take",
    "year", "years", "day", "thing", "things", "world", "work", "part",
    "back", "new", "first", "last", "long", "great", "little", "right",
    "place", "point", "number", "fact", "need", "want", "look", "find",
    "help", "problem", "question", "answer", "case", "different", "small",
    "large", "best", "better", "really", "sure", "actually", "probably",
    "someone", "anyone", "everyone", "anything", "something", "idea",
    "reason", "kind", "lot", "bit", "end", "start", "read", "write",
)
